"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 I/O error.  Output is deterministic for fixed inputs and seed.
Each subcommand imports the layers only it runs, so that a command
starts without loading (or compiling) the rest.
"""

from __future__ import annotations

import sys

import click

from .coherence import basis_dependent_discord, c_re, qi_relative_entropy, von_neumann_entropy
from .states import _check_p, density_matrix_from_dict, werner


def _checked_p(p: float) -> float:
    try:
        return _check_p(p)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _fmt_complex(v: complex) -> str:
    # add 0.0 to normalize negative zeros
    return f"{v.real + 0.0:.6f}{v.imag + 0.0:+.6f}j"


def _fmt_real(x: float) -> str:
    # the :.6f digits, except that a value rounding to zero prints without a sign
    return f"{round(x, 6) + 0.0:.6f}"


def _fmt_matrix(m) -> list[str]:
    return ["  [" + ", ".join(_fmt_complex(v) for v in row) + "]" for row in m]


@click.group()
def main():
    """Coherence quantifiers and assisted-distillation protocols."""


@main.command()
@click.option("--werner", "werner_p", type=float, default=None, help="Werner mixing parameter in [0, 1].")
@click.option("--file", "path", type=str, default=None, help="JSON state file with dims/re/im.")
def measures(werner_p, path):
    """Print the coherence measures of a bipartite state."""
    if (werner_p is None) == (path is None):
        raise click.UsageError("provide exactly one of --werner or --file")
    if werner_p is not None:
        rho = werner(_checked_p(werner_p))
    else:
        import json

        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            click.echo(f"cannot read state file: {exc}", err=True)
            sys.exit(3)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise click.UsageError(f"state file is not valid JSON: {exc}")
        try:
            rho = density_matrix_from_dict(payload)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        if len(rho.dims) != 2:
            raise click.UsageError(f"state must be bipartite, dims are {list(rho.dims)}")
    click.echo(f"S(rho) = {_fmt_real(von_neumann_entropy(rho))}")
    click.echo(f"C_re(rho_B) = {_fmt_real(c_re(rho.marginal_b))}")
    click.echo(f"C_re^A|B(rho) = {_fmt_real(qi_relative_entropy(rho))}")
    click.echo(f"D^A|B(rho) = {_fmt_real(basis_dependent_discord(rho))}")


@main.command()
@click.argument("name", type=click.Choice(["lqicc", "licc"]))
@click.option("--p", "p", type=float, required=True, help="Werner mixing parameter in [0, 1].")
def protocol(name, p):
    """Run one Werner distillation protocol and print its transcript."""
    from . import protocols

    p = _checked_p(p)
    result = protocols.lqicc_werner_protocol(p) if name == "lqicc" else protocols.licc_erasing_protocol(p)
    click.echo(f"protocol = {name}")
    click.echo(f"p = {p:.6f}")
    ensemble = result.ensemble
    for label, (q, state), gate in zip(ensemble.labels, ensemble.items, result.corrections):
        click.echo(f"outcome {label}: probability = {q:.6f}")
        click.echo("correction =")
        for line in _fmt_matrix(gate):
            click.echo(line)
        click.echo("bob state =")
        for line in _fmt_matrix(state.mat):
            click.echo(line)
    click.echo(f"rate = {result.rate:.6f}")


@main.command()
@click.option("--from", "p_from", type=float, default=0.0, show_default=True, help="Sweep start.")
@click.option("--to", "p_to", type=float, default=1.0, show_default=True, help="Sweep end.")
@click.option("--steps", type=int, default=101, show_default=True, help="Number of samples (>= 2).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=str, default=None, help="Output path (stdout when omitted).")
def scan(p_from, p_to, steps, fmt, out):
    """Sweep the closed-form qi, rate, and gap over a range of p."""
    from . import verify as verify_mod

    try:
        records = verify_mod.figure_data(p_from, p_to, steps)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    text = verify_mod.records_to_csv(records) if fmt == "csv" else verify_mod.records_to_json(records)
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"cannot write {out}: {exc}", err=True)
        sys.exit(3)
    click.echo(f"wrote {len(records)} records to {out}")


@main.command()
@click.argument("suite", type=click.Choice(["theorem3", "theorem4", "lemma1", "all"]))
@click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True, help="Seed for the randomized suite.")
@click.option("--brute-theta", type=click.IntRange(min=2), default=200, show_default=True, help="Polar grid size of the measurement sweep.")
@click.option("--brute-phi", type=click.IntRange(min=1), default=400, show_default=True, help="Azimuthal grid size of the measurement sweep.")
def verify(suite, seed, brute_theta, brute_phi):
    """Run a verification suite; exit 0 on pass, 1 on any failure."""
    from . import verify as verify_mod

    suites = []
    if suite in ("theorem3", "all"):
        suites.append(verify_mod.theorem3_suite())
    if suite in ("lemma1", "all"):
        suites.append(verify_mod.lemma1_suite(seed=seed))
    if suite in ("theorem4", "all"):
        suites.append(verify_mod.theorem4_suite(brute_grid=(brute_theta, brute_phi)))
    failed = 0
    total = 0
    for result in suites:
        for check in result.checks:
            total += 1
            tag = "PASS" if check.passed else "FAIL"
            if not check.passed:
                failed += 1
            click.echo(f"[{tag}] {result.name}: {check.label} ({check.detail})")
    click.echo(f"{total - failed}/{total} checks passed")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
