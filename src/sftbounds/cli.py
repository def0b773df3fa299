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

import json
import random
import sys
from types import SimpleNamespace

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


class _Flag:
    """One row of the flag table.

    ``names`` are the flag's spellings; its value is read by ``type``,
    checked against ``choices`` and stored on the attribute ``dest`` (the
    last name without its dashes, ``-`` read as ``_``).  ``_HELP``, the
    one flag every scope has, takes no value.
    """

    def __init__(self, *names, type=str, default=None, choices=None,
                 required=False, metavar=None, help=""):
        self.names = names
        self.label = "/".join(names)
        self.dest = names[-1].lstrip("-").replace("-", "_")
        self.type = type
        self.default = default
        self.choices = choices
        self.required = required
        if metavar is None and choices:
            metavar = "{" + ",".join(choices) + "}"
        self.metavar = metavar or self.dest.upper()
        self.help = help


class _Scope:
    """The flags read in one place of the command line: the global flags
    before the command, or one command's flags after it."""

    def __init__(self, prog, summary, flags):
        self.prog = prog
        self.summary = summary
        self.flags = (_HELP, *flags)
        self.options = {name: flag for flag in self.flags for name in flag.names}

    def error(self, message, name=None):
        """Prints the usage line and raises argparse's error line, which
        names the flag or argument ``name`` when one is given."""
        if name is not None:
            message = f"argument {name}: {message}"
        print(_usage(self), file=sys.stderr)
        raise CliError(EXIT_USAGE, f"{self.prog}: error: {message}")


# The flag table: the usage lines, the help and every error line are read
# off it.
_HELP = _Flag("-h", "--help", help="show this help message and exit")
_GLOBAL = _Scope(
    "sftbounds",
    "Exact pattern counts and certified entropy brackets for symmetric\n"
    "nearest-neighbor subshifts of finite type.",
    (
        _Flag("--model", metavar="PATH", help="model document (JSON)"),
        _Flag("--builtin", metavar="NAME[:PARAM]",
              help="builtin model: hard-square or coloring:q"),
        _Flag("--dim", type=int, help="dimension for --builtin"),
        _Flag("--format", default="human", choices=("human", "json", "csv"),
              help="output format"),
        _Flag("--seed", type=int, default=0, help="RNG seed for demos"),
        _Flag("--log-base", default="e", choices=("e", "2"),
              help="entropies in nats (e) or bits (2)"),
    ),
)
_SCOPES = {
    name: _Scope(f"sftbounds {name}", summary, flags)
    for name, summary, flags in (
        ("count", "exact pattern counts", (
            _Flag("--n", type=int, required=True, help="side of the first cube counted"),
            _Flag("--n-max", type=int,
                  help="side of the last cube counted; --n when not given"),
        )),
        ("bounds", "entropy bracket report", (
            _Flag("--n-max", type=int, required=True,
                  help="side of the last report row, at least 1"),
        )),
        ("verify", "check the bound inequalities", (
            _Flag("--n", type=int, default=2, help="side of the checks, at least 2"),
            _Flag("--samples", type=int, default=200,
                  help="glue draws from --seed, at least 1"),
        )),
        ("glue-demo", "show a reflection-gluing run", (
            _Flag("--n", type=int, default=2, help="side of the glued blocks, at least 2"),
        )),
    )
}


def _usage(scope) -> str:
    items = ["usage:", scope.prog, "[-h]"]
    for flag in scope.flags[1:]:
        item = f"{flag.names[0]} {flag.metavar}"
        items.append(item if flag.required else f"[{item}]")
    if scope is _GLOBAL:
        items.append("COMMAND ...")
    return " ".join(items)


def _help(scope) -> str:
    lines = [_usage(scope), "", scope.summary]
    if scope is _GLOBAL:
        lines += ["", "commands:"]
        lines += [f"  {name:<11}{command.summary}" for name, command in _SCOPES.items()]
    cells = [", ".join(flag.names) if flag is _HELP else f"{flag.names[0]} {flag.metavar}"
             for flag in scope.flags]
    width = max(map(len, cells)) + 2
    lines += ["", "global flags:" if scope is _GLOBAL else "flags:"]
    for cell, flag in zip(cells, scope.flags):
        note = flag.help
        if flag.required:
            note += " (required)"
        elif flag.default is not None:
            note += f" (default: {flag.default})"
        lines.append(f"  {cell:<{width}}{note}")
    if scope is _GLOBAL:
        lines += ["", "Global flags come before COMMAND.  A flag takes its value as "
                  "--flag VALUE or\n--flag=VALUE and may be shortened to any unique prefix."]
    return "\n".join(lines) + "\n"


def _invalid_choice(value, choices) -> str:
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _classify(scope, token):
    """How argparse reads ``token`` in ``scope``: None for a value, else
    (the option string it names, the value inside the token or None), with
    option None for a flag the scope does not have."""
    if not token.startswith("-") or token == "-":
        return None
    if token in scope.options:
        return token, None
    name, eq, inline = token.partition("=")
    if eq and name in scope.options:
        return name, inline
    if token[1] == "-":  # a unique prefix of a long flag
        hits = [option for option in scope.options if option.startswith(name)]
        inline = inline if eq else None
    else:  # a short flag with its value run on
        hits = [option for option in scope.options if option == token[:2]]
        inline = token[2:]
    if len(hits) > 1:
        scope.error(f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return hits[0], inline
    # a negative number (argparse's r"^-\d+$|^-\d*\.\d+$") or a token
    # with a space is a value
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    if dot:
        negative = (not whole or whole.isdecimal()) and fraction.isdecimal()
    else:
        negative = whole.isdecimal()
    if negative or " " in token:
        return None
    return None, None


def _enter(scope, args, tokens) -> list:
    """Sets the defaults of ``scope`` on ``args`` and classifies ``tokens``
    up to the first "--": argparse reads every token of a scope before it
    takes any, so an ambiguous prefix is refused before any other error."""
    for flag in scope.flags[1:]:
        setattr(args, flag.dest, flag.default)
    if "--" in tokens:
        tokens = tokens[:tokens.index("--")]
    return [_classify(scope, token) for token in tokens]


def parse_args(argv) -> SimpleNamespace:
    """The attributes that ``load_model`` and the ``cmd_*`` functions read.

    The grammar is argparse's: the global flags come before the command; a
    flag takes its value as ``--flag VALUE`` or ``--flag=VALUE`` and may be
    shortened to any unique prefix; a repeated flag keeps its last value;
    and a token such as ``-5`` is a value.  ``-h`` prints the help of the
    global flags or of the command it follows and raises ``CliError`` with
    ``EXIT_OK``.  A usage error prints the usage line of its scope to
    stderr and raises ``CliError`` with ``EXIT_USAGE`` and argparse's error
    line.  ``command`` is None when no command is given.
    """
    argv = list(argv)
    args = SimpleNamespace(command=None)
    scope, seen, extras = _GLOBAL, set(), []
    kinds = _enter(scope, args, argv)
    i = 0
    while i < len(kinds):
        token, kind = argv[i], kinds[i]
        i += 1
        if kind is None and scope is _GLOBAL:  # the command
            if token not in _SCOPES:
                scope.error(_invalid_choice(token, _SCOPES), "COMMAND")
            args.command, scope = token, _SCOPES[token]
            kinds[i:] = _enter(scope, args, argv[i:])
            continue
        if kind is None or kind[0] is None:
            extras.append(token)
            continue
        option, text = kind
        flag = scope.options[option]
        if flag is _HELP:
            if text and option == "-h":  # "-hh" is -h twice
                text = text.lstrip("h") or None
            if text is not None:
                scope.error(f"ignored explicit argument {text!r}", flag.label)
            sys.stdout.write(_help(scope))
            raise CliError(EXIT_OK)
        if text is None:
            if i == len(kinds) or kinds[i] is not None:
                scope.error("expected one argument", flag.label)
            text = argv[i]
            i += 1
        try:
            value = flag.type(text)
        except ValueError:
            scope.error(f"invalid {flag.type.__name__} value: {text!r}", flag.label)
        if flag.choices is not None and value not in flag.choices:
            scope.error(_invalid_choice(value, flag.choices), flag.label)
        setattr(args, flag.dest, value)
        seen.add(flag)
    rest = argv[len(kinds):]  # "--" and what follows it
    if scope is _GLOBAL and len(rest) > 1:
        scope.error(_invalid_choice("--", _SCOPES), "COMMAND")
    extras += rest
    missing = [flag.label for flag in scope.flags if flag.required and flag not in seen]
    if missing:
        scope.error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _GLOBAL.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


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
    for _, _, ok, line in side_checks(side, c_n, c_glued):
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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.command is None:
            _GLOBAL.error("a command is required (count, bounds, verify, glue-demo)")
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
