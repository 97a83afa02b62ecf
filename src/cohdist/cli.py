"""Command-line interface, on the standard library's argparse.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 I/O error.  Output is deterministic for fixed inputs and seed.
Each subcommand imports the layers only it runs, and only once its
input has passed the checks that need no spectrum, so that `scan` and
rejected input start without numpy; only a state file that fails
positivity loads it.  `main(args)` and click's `main.main(args=...,
prog_name=...)` run a command line; ArgumentError is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .scalars import _bipartite_dims, _check_p, _check_rows, _fmt6, _payload_rows

# Bounds run time: theorem4 sweeps the grid once per p, nine times, at about 0.6 s per 10^6 points.
MAX_GRID_POINTS = 1_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # click's usage-error frame, then exit 2
        self.exit(2, f"Usage: {self.usage}\nTry '{self.prog} --help' for help.\n\nError: {message}\n")


def _reader(hint: str, kind):
    """An argparse type reading a value as click did; kind: float, int, a least int (IntRange), choices or _check_p."""

    def read(text: str):
        number = {int: "integer", float: "float", _check_p: "float"}.get(kind, "integer range")
        try:
            value = text if isinstance(kind, tuple) else (float if number == "float" else int)(text)
        except ValueError:
            raise argparse.ArgumentError(None, f"Invalid value for '{hint}': {text!r} is not a valid {number}.")
        if isinstance(kind, tuple) and value not in kind:
            raise argparse.ArgumentError(None, f"Invalid value for '{hint}': {value!r} is not one of {', '.join(map(repr, kind))}.")
        if type(kind) is int and value < kind:
            raise argparse.ArgumentError(None, f"Invalid value for '{hint}': {value} is not in the range x>={kind}.")
        try:
            return _check_p(value) if kind is _check_p else value
        except ValueError as exc:  # a rule click's callback checked, stated without the option
            raise argparse.ArgumentError(None, f"Invalid value: {exc}")

    return read


def measures(werner_p, path):
    """Print the coherence measures of a bipartite state."""
    if (werner_p is None) == (path is None):
        raise argparse.ArgumentError(None, "provide exactly one of --werner or --file")
    if werner_p is not None:
        from .states import werner

        rho = werner(werner_p)
    else:
        import json

        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            print(f"cannot read state file: {exc}", file=sys.stderr)
            sys.exit(3)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise argparse.ArgumentError(None, f"state file is not valid JSON: {exc}")
        try:
            rows, dims = _payload_rows(payload)
            dims = _bipartite_dims(_check_rows(rows, dims))
            # numpy loads only for a file that passes every rule but positivity
            from .states import DensityMatrix

            rho = DensityMatrix(rows, dims)
        except ValueError as exc:
            raise argparse.ArgumentError(None, str(exc))
    from .coherence import basis_dependent_discord, c_re, qi_relative_entropy, von_neumann_entropy

    # a state can pass while its rho_B or Delta_B rho fails the checks: no line before all four
    try:
        values = (von_neumann_entropy(rho), c_re(rho.marginal_b), qi_relative_entropy(rho), basis_dependent_discord(rho))
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc))
    for name, x in zip(("S(rho)", "C_re(rho_B)", "C_re^A|B(rho)", "D^A|B(rho)"), values):
        print(f"{name} = {_fmt6(x)}")


def protocol(name, p):
    """Run one Werner distillation protocol and print its transcript."""
    from . import protocols

    result = protocols.lqicc_werner_protocol(p) if name == "lqicc" else protocols.licc_erasing_protocol(p)
    print(f"protocol = {name}\np = {_fmt6(p)}")
    for label, (q, state), gate in zip(result.ensemble.labels, result.ensemble.items, result.corrections):
        print(f"outcome {label}: probability = {_fmt6(q)}")
        for title, m in (("correction =", gate), ("bob state =", state.mat)):
            print(title, *("  [" + ", ".join(f"{_fmt6(v.real)}{_fmt6(v.imag, '+')}j" for v in row) + "]" for row in m), sep="\n")
    print(f"rate = {_fmt6(result.rate)}")


def scan(p_from, p_to, steps, fmt, out):
    """Sweep the closed-form qi, rate, and gap over a range of p."""
    from . import closed_forms

    try:
        records = closed_forms.figure_data(p_from, p_to, steps)
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc))
    text = closed_forms.records_to_csv(records) if fmt == "csv" else closed_forms.records_to_json(records)
    if out is None:
        print(text, end="")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        sys.exit(3)
    print(f"wrote {len(records)} records to {out}")


def verify(suite, seed, brute_theta, brute_phi):
    """Run a verification suite; exit 0 on pass, 1 on any failure."""
    if brute_theta * brute_phi > MAX_GRID_POINTS:
        raise argparse.ArgumentError(None, f"--brute-theta x --brute-phi is {brute_theta * brute_phi} grid points, at most {MAX_GRID_POINTS}")
    from . import verify as verify_mod

    runs = {"theorem3": verify_mod.theorem3_suite, "lemma1": lambda: verify_mod.lemma1_suite(seed=seed),
            "theorem4": lambda: verify_mod.theorem4_suite(brute_grid=(brute_theta, brute_phi))}
    lines = [(name, check) for name, run in runs.items() if suite in (name, "all") for check in run()]
    for name, check in lines:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {name}: {check.label} ({check.detail})")
    failed = sum(not check.passed for _, check in lines)
    print(f"{len(lines) - failed}/{len(lines)} checks passed")
    if failed:
        sys.exit(1)


COMMANDS = {"measures": measures, "protocol": protocol, "scan": scan, "verify": verify}
# Positional arguments (the group's under None), then options: flag, handler argument, _reader kind, default, metavar, help.
ARGUMENTS = {None: ("command", tuple(COMMANDS)), "protocol": ("name", ("lqicc", "licc")),
             "verify": ("suite", ("theorem3", "theorem4", "lemma1", "all"))}
OPTIONS = {
    "measures": (("--werner", "werner_p", _check_p, None, "FLOAT", "Werner mixing parameter in [0, 1]."),
                 ("--file", "path", None, None, "TEXT", "JSON state file with dims/re/im.")),
    "protocol": (("--p", "p", _check_p, ..., "FLOAT", "Werner mixing parameter in [0, 1].  [required]"),),
    "scan": (("--from", "p_from", float, 0.0, "FLOAT", "Sweep start.  [default: 0.0]"),
             ("--to", "p_to", float, 1.0, "FLOAT", "Sweep end.  [default: 1.0]"),
             ("--steps", "steps", int, 101, "INTEGER", "Number of samples (>= 2).  [default: 101]"),
             ("--format", "fmt", ("csv", "json"), "csv", "[csv|json]", "[default: csv]"),
             ("--out", "out", None, None, "TEXT", "Output path (stdout when omitted).")),
    "verify": (("--seed", "seed", 0, 7, "INTEGER RANGE", "Seed for the randomized suite.  [default: 7; x>=0]"),
               ("--brute-theta", "brute_theta", 2, 200, "INTEGER RANGE", "Polar grid size of the measurement sweep.  [default: 200; x>=2]"),
               ("--brute-phi", "brute_phi", 1, 400, "INTEGER RANGE", "Azimuthal grid size of the measurement sweep.  [default: 400; x>=1]")),
}


def _parser(prog: str, command: str | None) -> _Parser:
    """The parser of command, or of the command group when it is None; flags are never abbreviated."""
    path, (dest, choices) = f"{prog} {command}" if command else prog, ARGUMENTS.get(command, (None, ()))
    hint = "{" + "|".join(choices) + "}"
    parser = _Parser(
        prog=path, usage=f"{path} [OPTIONS]" + f" {hint}" * bool(choices), description=(COMMANDS.get(command) or main).__doc__,
        epilog=None if command else "Commands:" + "".join(f"\n  {name:<8}  {h.__doc__}" for name, h in COMMANDS.items()), add_help=False,
        allow_abbrev=False, formatter_class=lambda prog: argparse.RawDescriptionHelpFormatter(prog, max_help_position=32, width=80),
    )
    if dest:
        parser.add_argument(dest, type=_reader(hint, choices), metavar=hint, help=argparse.SUPPRESS)
    options = parser.add_argument_group("Options")
    for flag, name, kind, default, metavar, text in OPTIONS.get(command, ()):
        reader = None if kind is None else _reader(flag, kind)  # None: text; a default of ... marks a required option
        options.add_argument(flag, dest=name, type=reader, default=default, required=default is ..., metavar=metavar, help=text)
    options.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def main(args: list[str] | None = None, prog_name: str = "cohdist") -> None:
    """Coherence quantifiers and assisted-distillation protocols."""
    args = sys.argv[1:] if args is None else list(args)
    args = args[:-1] if args[-1:] == ["--"] else args  # click took a trailing `--`; argparse would reject it
    command = args[0] if args and args[0] in COMMANDS else None
    flags, tokens = {option[0] for option in OPTIONS.get(command, ())}, iter(args)
    args = [next((f"{t}={v}" for v in tokens), t) if t in flags else t for t in tokens]  # click read the next token as the value, `-` and all
    parser = _parser(prog_name, command)
    try:
        try:  # the group's parser sees one token that names no command: it prints --help or a usage error
            namespace = parser.parse_args(args[1:] if command else args[:1])
            COMMANDS[command](**vars(namespace))
        finally:  # flush here, not at exit, so that a closed stdout is handled below
            sys.stdout.flush()
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except BrokenPipeError:  # stdout's reader left, as `| head` does: exit 1 with no traceback, as click did
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(0)


main.main = main  # click's Group.main(args=..., prog_name=...), for callers of the old interface

if __name__ == "__main__":
    main()
