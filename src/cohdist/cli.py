"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 I/O error.  Output is deterministic for fixed inputs and seed.
Each subcommand imports the layers only it runs, and only once its
input has passed the checks that need no spectrum, so that `scan` and
rejected input start without numpy; only a state file that fails
positivity loads it.
"""

from __future__ import annotations

import sys

import click

from .scalars import _bipartite_dims, _check_p, _check_rows, _fmt6, _payload_rows

# Bounds run time: theorem4 sweeps the grid once per p, nine times, at about 0.6 s per 10^6 points.
MAX_GRID_POINTS = 1_000_000


def _checked_p(p: float) -> float:
    try:
        return _check_p(p)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _fmt_complex(v: complex) -> str:
    return f"{_fmt6(v.real)}{_fmt6(v.imag, '+')}j"


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
        p = _checked_p(werner_p)
        from .states import werner

        rho = werner(p)
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
            rows, dims = _payload_rows(payload)
            dims = _bipartite_dims(_check_rows(rows, dims))
            # numpy loads only for a file that passes every rule but positivity
            from .states import DensityMatrix

            rho = DensityMatrix(rows, dims)
        except ValueError as exc:
            raise click.UsageError(str(exc))
    from .coherence import basis_dependent_discord, c_re, qi_relative_entropy, von_neumann_entropy

    # a state can pass while its rho_B or Delta_B rho fails the checks: no line before all four
    try:
        values = (von_neumann_entropy(rho), c_re(rho.marginal_b), qi_relative_entropy(rho), basis_dependent_discord(rho))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for name, x in zip(("S(rho)", "C_re(rho_B)", "C_re^A|B(rho)", "D^A|B(rho)"), values):
        click.echo(f"{name} = {_fmt6(x)}")


@main.command()
@click.argument("name", type=click.Choice(["lqicc", "licc"]))
@click.option("--p", "p", type=float, required=True, help="Werner mixing parameter in [0, 1].")
def protocol(name, p):
    """Run one Werner distillation protocol and print its transcript."""
    p = _checked_p(p)
    from . import protocols

    result = protocols.lqicc_werner_protocol(p) if name == "lqicc" else protocols.licc_erasing_protocol(p)
    click.echo(f"protocol = {name}")
    click.echo(f"p = {_fmt6(p)}")
    ensemble = result.ensemble
    for label, (q, state), gate in zip(ensemble.labels, ensemble.items, result.corrections):
        click.echo(f"outcome {label}: probability = {_fmt6(q)}")
        click.echo("correction =")
        for line in _fmt_matrix(gate):
            click.echo(line)
        click.echo("bob state =")
        for line in _fmt_matrix(state.mat):
            click.echo(line)
    click.echo(f"rate = {_fmt6(result.rate)}")


@main.command()
@click.option("--from", "p_from", type=float, default=0.0, show_default=True, help="Sweep start.")
@click.option("--to", "p_to", type=float, default=1.0, show_default=True, help="Sweep end.")
@click.option("--steps", type=int, default=101, show_default=True, help="Number of samples (>= 2).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=str, default=None, help="Output path (stdout when omitted).")
def scan(p_from, p_to, steps, fmt, out):
    """Sweep the closed-form qi, rate, and gap over a range of p."""
    from . import closed_forms

    try:
        records = closed_forms.figure_data(p_from, p_to, steps)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    text = closed_forms.records_to_csv(records) if fmt == "csv" else closed_forms.records_to_json(records)
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
    if brute_theta * brute_phi > MAX_GRID_POINTS:
        raise click.UsageError(f"--brute-theta x --brute-phi is {brute_theta * brute_phi} grid points, at most {MAX_GRID_POINTS}")
    from . import verify as verify_mod

    suites = []
    if suite in ("theorem3", "all"):
        suites.append(("theorem3", verify_mod.theorem3_suite()))
    if suite in ("lemma1", "all"):
        suites.append(("lemma1", verify_mod.lemma1_suite(seed=seed)))
    if suite in ("theorem4", "all"):
        suites.append(("theorem4", verify_mod.theorem4_suite(brute_grid=(brute_theta, brute_phi))))
    failed = 0
    total = 0
    for name, checks in suites:
        for check in checks:
            total += 1
            tag = "PASS" if check.passed else "FAIL"
            if not check.passed:
                failed += 1
            click.echo(f"[{tag}] {name}: {check.label} ({check.detail})")
    click.echo(f"{total - failed}/{total} checks passed")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
