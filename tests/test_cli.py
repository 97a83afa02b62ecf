import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

import cohdist
import cohdist.verify as verify_mod
from cohdist import cli, closed_forms, coherence
from cohdist.closed_forms import figure_data, qi_werner_closed_form, rate_werner_closed_form
from cohdist.scalars import _bipartite_dims, _fmt6
from cohdist.states import (
    density_matrix_from_dict,
    density_matrix_to_dict,
    random_density_matrix,
    random_zero_discord_spec,
    werner,
    zero_discord_state,
)

SCAN_3_STEPS = (
    "p,qi,rate,gap\n"
    "0.000000,0.000000,0.000000,0.000000\n"
    "0.500000,0.262483,0.188722,0.073761\n"
    "1.000000,1.000000,1.000000,0.000000\n"
)


class TestMeasures:
    def test_file_input_matches_werner(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(density_matrix_to_dict(werner(0.5))))
        result = run_cli(["measures", "--file", str(path)])
        assert result.exit_code == 0
        assert result.output == run_cli(["measures", "--werner", "0.5"]).output

    def test_values_that_round_to_zero_print_without_a_sign(self, tmp_path, monkeypatch):
        """Zero-discord states often compute a discord of order -1e-16 to
        -1e-15; none of the four lines may read -0.000000, while a value
        that rounds to a nonzero negative keeps its sign."""
        rng = np.random.default_rng(0)
        outputs = []
        for da, db in ((2, 2), (2, 3), (2, 4), (3, 3)) * 6:
            path = tmp_path / "state.json"
            rho = zero_discord_state(random_zero_discord_spec(rng, da, db))
            path.write_text(json.dumps(density_matrix_to_dict(rho)))
            outputs.append(run_cli(["measures", "--file", str(path)]))
        monkeypatch.setattr(coherence, "basis_dependent_discord", lambda rho: -1e-15)
        outputs.append(run_cli(["measures", "--werner", "0.5"]))
        assert outputs[-1].output.endswith("D^A|B(rho) = 0.000000\n")
        monkeypatch.setattr(coherence, "basis_dependent_discord", lambda rho: -6e-7)
        assert run_cli(["measures", "--werner", "0.5"]).output.endswith("D^A|B(rho) = -0.000001\n")
        for result in outputs:
            assert result.exit_code == 0
            assert "-0.000000" not in result.output

    def test_deeply_nested_file_is_a_usage_error(self, tmp_path):
        # json.load raises RecursionError, not JSONDecodeError
        path = tmp_path / "state.json"
        path.write_bytes(b"[" * 100000)
        result = run_cli(["measures", "--file", str(path)])
        assert result.exit_code == 2
        assert "state file is not valid JSON" in result.stderr

    def test_bipartite_rule_runs_before_positivity(self, tmp_path):
        # it needs no spectrum, so a state breaking both reports it, before numpy loads
        payload = {"dims": [4], "re": np.diag([0.6, 0.5, 0.1, -0.2]).tolist(), "im": [[0.0] * 4] * 4}
        path = tmp_path / "mono.json"
        path.write_text(json.dumps(payload))
        result = run_cli(["measures", "--file", str(path)])
        assert result.exit_code == 2
        assert result.stderr.endswith("\nError: needs a bipartite state, dims are (4,)\n")

    @pytest.mark.parametrize(
        "rows, defect",
        [
            # I/4 with 0.1 + 0.9e-10 at (0,1) and (2,3) but 0.1 at (1,0) and (3,2):
            # rho_B sums both defects into 1.8e-10
            ([[0.25, 0.1 + 0.9e-10, 0, 0], [0.1, 0.25, 0, 0], [0, 0, 0.25, 0.1 + 0.9e-10], [0, 0, 0.1, 0.25]], "not Hermitian"),
            # two eigenvalues -0.9e-10 that rho_B adds into one of -1.8e-10
            ([[0.5 + 0.9e-10, 0, 0, 0], [0, -0.9e-10, 0, 0], [0, 0, 0.5 + 0.9e-10, 0], [0, 0, 0, -0.9e-10]], "not positive"),
        ],
        ids=["hermiticity", "eigenvalue"],
    )
    def test_state_whose_marginal_fails_is_a_usage_error(self, tmp_path, rows, defect):
        payload = {"dims": [2, 2], "re": rows, "im": [[0.0] * 4 for _ in range(4)]}
        rho = density_matrix_from_dict(payload)  # the state itself passes
        with pytest.raises(ValueError, match=defect):
            rho.marginal_b
        path = tmp_path / "marginal.json"
        path.write_text(json.dumps(payload))
        result = run_cli(["measures", "--file", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert defect in result.stderr


def _non_positive(payload, rng):
    n = len(payload["re"])
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    eigs = np.full(n, 1.2 / (n - 1))
    eigs[0] = -0.2
    mat = u @ np.diag(eigs) @ u.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return {**payload, "re": mat.real.tolist(), "im": mat.imag.tolist()}


def _set_entry(key, value):
    """The defect that sets payload[key]'s entry at a position rng draws to value."""

    def defect(payload, rng):
        rows = [list(row) for row in payload[key]]
        i, j = (int(k) for k in rng.integers(len(rows), size=2))
        rows[i][j] = value
        return {**payload, key: rows}

    return defect


def _add_off_diagonal(payload, rng):
    rows = [list(row) for row in payload["re"]]
    i, j = (int(k) for k in rng.choice(len(rows), size=2, replace=False))
    rows[i][j] += 1e-3
    return {**payload, "re": rows}


def _ragged(payload, rng):
    rows = [list(row) for row in payload["re"]]
    rows[int(rng.integers(len(rows)))].pop()
    return {**payload, "re": rows}


TOP_LEVEL = {"array": [1, 2], "string": "state", "number": 5, "null": None}
FIRST_DIMS = {"2.5": 2.5, "string": "2", "true": True, "null": None}
ENTRIES = {
    "true": True, "false": False, "string": "0.1", "null": None, "list": [0.1],
    "10**400": 10**400, "-10**400": -(10**400), "nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"),
}

# One defect each, applied to a valid state payload: every input rule of a
# state file, each way of breaking it a row of its own.
DEFECTS = {
    **{f"missing-{key}": lambda d, rng, key=key: {k: v for k, v in d.items() if k != key} for key in ("dims", "re", "im")},
    **{f"top-level-{name}": lambda d, rng, x=x: x for name, x in TOP_LEVEL.items()},
    **{f"first-dim-{name}": lambda d, rng, x=x: {**d, "dims": [x, d["dims"][1]]} for name, x in FIRST_DIMS.items()},
    "dims-string": lambda d, rng: {**d, "dims": "22"},
    "dims-product": lambda d, rng: {**d, "dims": [d["dims"][0], d["dims"][1] + 1]},
    "zero-dim": lambda d, rng: {**d, "dims": [0, d["dims"][1]]},
    **{f"{key}-entry-{name}": _set_entry(key, x) for key in ("re", "im") for name, x in ENTRIES.items()},
    "re-string": lambda d, rng: {**d, "re": "oops"},
    "re-flat": lambda d, rng: {**d, "re": d["re"][0]},
    "ragged": _ragged,
    "non-square": lambda d, rng: {**d, "re": [row[:-1] for row in d["re"]], "im": [row[:-1] for row in d["im"]]},
    "mismatched": lambda d, rng: {**d, "im": d["im"][:-1]},
    "empty-re": lambda d, rng: {**d, "re": []},
    "empty-im": lambda d, rng: {**d, "im": []},
    "non-Hermitian": _add_off_diagonal,
    "wrong-trace": lambda d, rng: {**d, "re": [[1.25 * x for x in row] for row in d["re"]], "im": [[1.25 * x for x in row] for row in d["im"]]},
    "non-bipartite": lambda d, rng: {**d, "dims": [len(d["re"])]},
    "non-positive": _non_positive,
}


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_cli_reports_the_library_error_for_each_defect(tmp_path, defect):
    """Whichever rule a state file breaks, at 2x2, 2x3 and 3x2, the text
    after `Error: ` is the ValueError the library raises on the same
    payload: the numpy-free checks run before the state is built and say
    what it would say."""
    for k, dims in enumerate(((2, 2), (2, 3), (3, 2))):
        rng = np.random.default_rng(k)
        payload = DEFECTS[defect](density_matrix_to_dict(random_density_matrix(dims[0] * dims[1], rng, dims)), rng)
        with pytest.raises(ValueError) as want:
            _bipartite_dims(density_matrix_from_dict(payload).dims)
        path = tmp_path / f"defect_{k}.json"
        path.write_text(json.dumps(payload))
        result = run_cli(["measures", "--file", str(path)])
        assert (result.exit_code, result.stdout) == (2, ""), dims
        assert result.stderr.endswith(f"\nError: {want.value}\n"), dims


class TestFormat:
    @settings(max_examples=500, derandomize=True)
    @given(st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e-5, 1e-5))
    def test_six_decimals_as_format_prints_them_but_never_minus_zero(self, x):
        want = f"{x:.6f}"
        assert _fmt6(x) == ("0.000000" if want == "-0.000000" else want)

    @pytest.mark.parametrize(
        "x, sign, text",
        [
            (-1e-17, "", "0.000000"),
            (-4e-7, "", "0.000000"),
            (-6e-7, "", "-0.000001"),
            (-0.0, "", "0.000000"),
            (-1e-17, "+", "+0.000000"),
            (0.25, "+", "+0.250000"),
            (-0.25, "+", "-0.250000"),
        ],
    )
    def test_explicit_cases(self, x, sign, text):
        assert _fmt6(x, sign) == text


class TestScan:
    def test_json_format(self):
        result = run_cli(["scan", "--steps", "3", "--format", "json"])
        assert result.exit_code == 0
        assert result.output.endswith("\n")
        rows = json.loads(result.output)
        assert [r["p"] for r in rows] == [0.0, 0.5, 1.0]
        assert rows[1]["qi"] == qi_werner_closed_form(0.5)
        assert rows[1]["rate"] == rate_werner_closed_form(0.5)
        assert rows[1]["gap"] == qi_werner_closed_form(0.5) - rate_werner_closed_form(0.5)

    def test_csv_header_is_the_json_rows_keys(self, monkeypatch):
        def header_and_keys():
            header = run_cli(["scan", "--steps", "3"]).output.splitlines()[0]
            rows = json.loads(run_cli(["scan", "--steps", "3", "--format", "json"]).output)
            return header, list(rows[0])

        assert header_and_keys() == ("p,qi,rate,gap", ["p", "qi", "rate", "gap"])
        # control: rows that put gap first move it to the front of the CSV header as well
        sweep = closed_forms.figure_data
        monkeypatch.setattr(closed_forms, "figure_data", lambda *args: [{"gap": r.pop("gap"), **r} for r in sweep(*args)])
        assert header_and_keys() == ("gap,p,qi,rate", ["gap", "p", "qi", "rate"])

    def test_output_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run_cli(["scan", "--steps", "3", "--out", str(out)])
        assert result.exit_code == 0
        assert result.output == f"wrote 3 records to {out}\n"
        assert out.read_text() == SCAN_3_STEPS

    def test_json_output_file_holds_what_stdout_prints(self, tmp_path):
        out = tmp_path / "sweep.json"
        args = ["scan", "--steps", "3", "--format", "json"]
        result = run_cli([*args, "--out", str(out)])
        assert result.exit_code == 0
        assert result.output == f"wrote 3 records to {out}\n"
        assert out.read_text() == run_cli(args).output

    @pytest.mark.parametrize("size", [1, 2])
    def test_any_batch_size_writes_the_same_bytes(self, monkeypatch, tmp_path, size):
        """Rows are written SCAN_BATCH_ROWS at a time: batches of 1 or 2 rows print,
        and write to --out, exactly what one batch of all 5 rows does."""

        def outputs():
            got = []
            for fmt in ("csv", "json"):
                args, out = ["scan", "--steps", "5", "--format", fmt], tmp_path / f"sweep.{fmt}"
                got += [run_cli(args).output, run_cli([*args, "--out", str(out)]).output, out.read_text()]
            return got

        whole = outputs()
        assert len(whole[0].splitlines()) == 6 and len(json.loads(whole[3])) == 5
        assert whole[2] == whole[0] and whole[5] == whole[3]
        monkeypatch.setattr(cli, "SCAN_BATCH_ROWS", size)
        assert outputs() == whole

    def test_values_that_round_to_zero_print_without_a_sign(self):
        args = ["scan", "--from", "0", "--to", "0.00000001", "--steps", "6"]
        # control: the sweep holds a value just below zero, which json prints in full
        negative = [x for r in figure_data(0.0, 1e-8, 6) for x in (r["qi"], r["rate"], r["gap"]) if x < 0.0]
        assert negative
        rows = json.loads(run_cli([*args, "--format", "json"]).output)
        assert negative[0] in [row[key] for row in rows for key in ("qi", "rate", "gap")]
        result = run_cli(args)
        assert result.exit_code == 0
        assert "-0.000000" not in result.output

    def test_range_whose_formula_overshoots_its_end(self):
        result = run_cli(["scan", "--from", "0.059", "--steps", "7"])
        assert result.exit_code == 0, result.output
        assert result.output.endswith("\n1.000000,1.000000,1.000000,0.000000\n")

    def test_huge_step_count_is_rejected_at_once(self):
        result = run_cli(["scan", "--steps", "1000000000"])
        assert result.exit_code == 2
        assert "steps must be at most 1000001" in result.stderr
        assert result.stdout == ""

    def test_unwritable_target_is_an_io_error(self, tmp_path):
        out = tmp_path / "missing" / "sweep.csv"
        result = run_cli(["scan", "--steps", "3", "--out", str(out)])
        assert result.exit_code == 3
        assert "cannot write" in result.stderr


class TestVerify:
    def test_theorem3_passes(self):
        result = run_cli(["verify", "theorem3"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert all(line.startswith("[PASS] theorem3:") for line in lines[:-1])
        assert lines[-1] == "2/2 checks passed"

    def test_lemma1_is_deterministic_for_a_fixed_seed(self):
        args = ["verify", "lemma1", "--seed", "42"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.exit_code == 0
        assert first.output == second.output
        assert first.output.endswith("104/104 checks passed\n")

    def test_theorem4_passes_on_a_reduced_sweep(self):
        args = ["verify", "theorem4", "--brute-theta", "121", "--brute-phi", "16"]
        result = run_cli(args)
        assert result.exit_code == 0
        assert "gap positive on the interior grid" in result.output

    def test_shifted_curvature_fails_theorem4_with_exit_one(self, monkeypatch):
        """The negative control of the curvature line: gap_second_derivative
        off by 1e-3 where verify reads it keeps both signs right and fails
        only the central-difference check."""
        d2 = closed_forms.gap_second_derivative
        monkeypatch.setattr(closed_forms, "gap_second_derivative", lambda p: d2(p) + 1e-3)
        result = run_cli(["verify", "theorem4", "--brute-theta", "21", "--brute-phi", "4"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert lines[-2].startswith("[FAIL] theorem4: gap convex below 1/3, concave above (")
        assert lines[-1] == "10/11 checks passed"

    def test_lemma1_random_specs_print_only_rounding_noise(self):
        """The discord= digits of the random-spec lines are rounding noise,
        not part of the output contract; their size is."""
        result = run_cli(["verify", "lemma1"])
        assert result.exit_code == 0
        lines = [x for x in result.output.splitlines() if "random zero-discord spec" in x]
        assert len(lines) == 100
        for line in lines:
            assert line.startswith("[PASS] lemma1: ")
            assert abs(float(line.rsplit("discord=", 1)[1].rstrip(")"))) <= 1e-12

    @pytest.mark.parametrize(
        "args",
        [
            ["theorem4", "--brute-theta", "1"],
            ["theorem4", "--brute-phi", "0"],
            ["lemma1", "--seed", "-1"],
        ],
        ids=["brute-theta", "brute-phi", "seed"],
    )
    def test_out_of_range_options_are_usage_errors(self, args):
        result = run_cli(["verify", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "Invalid value" in result.stderr
        assert result.stdout == ""

    def test_measurement_grid_is_bounded(self, monkeypatch):
        """A grid above MAX_GRID_POINTS is a usage error that runs no suite;
        one of exactly MAX_GRID_POINTS reaches the theorem-4 suite."""
        grids = []
        forced = (verify_mod.CheckLine("forced", True, "stub"),)
        monkeypatch.setattr(verify_mod, "theorem4_suite", lambda brute_grid: grids.append(brute_grid) or forced)
        result = run_cli(["verify", "theorem4", "--brute-theta", "1001", "--brute-phi", "1000"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "1001000 grid points, at most 1000000" in result.stderr
        assert grids == []
        result = run_cli(["verify", "theorem4", "--brute-theta", "1000", "--brute-phi", "1000"])
        assert result.exit_code == 0
        assert grids == [(1000, 1000)]

    def test_any_failing_check_exits_one(self, monkeypatch):
        forced = (verify_mod.CheckLine("forced failure", False, "broken"),)
        monkeypatch.setattr(verify_mod, "theorem3_suite", lambda: forced)
        result = run_cli(["verify", "theorem3"])
        assert result.exit_code == 1
        assert "[FAIL] theorem3: forced failure (broken)" in result.output
        assert "0/1 checks passed" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["measures", "--bogus"],
        ["measures", "--wer", "0.5"],
        ["protocol", "lqicc", "--p", "abc"],
        ["protocol", "lqicc"],
        ["scan", "--steps", "2.5"],
        ["scan", "--format", "xml"],
        ["verify", "bogus"],
        ["verify", "lemma1", "--seed", "-1"],
        ["verify", "theorem4", "--brute-theta", "1"],
        ["verify", "theorem4", "--brute-phi", "0"],
        ["measures", "--werner", "0.5", "extra"],
        ["scan", "-h"],
        ["measures", "--werner", "0.5", "--file", "x.json"],
    ],
    ids=[
        "unknown-option", "abbreviated-option", "non-number-p", "missing-p", "non-integer-steps", "unknown-format",
        "unknown-suite", "negative-seed", "brute-theta-below-2", "brute-phi-below-1", "extra-argument", "short-help",
        "both-sources",
    ],
)
def test_malformed_invocation_is_a_usage_error(args):
    """Each invocation the parser rejects, or that names both state sources,
    exits 2 before the command runs:
    nothing on stdout, and stderr opens with the command's usage line and
    holds an `Error: ` line.  No prefix stands for a flag, so `--wer` is an
    unknown option, not `--werner`, and `-h` is no short form of `--help`."""
    result = run_cli(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"Usage: cohdist {args[0]} ")
    assert "\nError: " in result.stderr


def test_a_trailing_double_dash_is_dropped():
    """One trailing `--` ends the options and changes nothing, as under
    click: each command prints what it prints without it.  An argument
    after a `--` is still an extra argument, and `cohdist --` names no
    command: both exit 2."""
    for args in (["measures", "--werner", "0.5"], ["scan", "--steps", "3"], ["protocol", "licc", "--p", "0.5"]):
        result = run_cli([*args, "--"])
        assert (result.exit_code, result.output) == (0, run_cli(args).output)
    for args in (["measures", "--werner", "0.5", "--", "extra"], ["--"]):
        result = run_cli(args)
        assert (result.exit_code, result.stdout) == (2, "")
        assert "\nError: " in result.stderr


def test_an_option_value_may_start_with_a_dash(tmp_path, monkeypatch):
    """The token after an option is its value, a leading `-` included, as
    click read it: `--out -x.csv` writes ./-x.csv, and a value that breaks
    a rule gets that rule's message.  An option with no token after it
    still expects one."""
    monkeypatch.chdir(tmp_path)
    result = run_cli(["scan", "--steps", "3", "--out", "-x.csv"])
    assert (result.exit_code, result.output) == (0, "wrote 3 records to -x.csv\n")
    assert (tmp_path / "-x.csv").read_text() == SCAN_3_STEPS
    for args, message in (
        (["scan", "--from", "-1e-3"], "need 0 <= from <= to <= 1, got -0.001..1.0"),
        (["protocol", "lqicc", "--p", "--werner"], "Invalid value for '--p': '--werner' is not a valid float."),
        (["scan", "--steps", "3", "--out"], "argument --out: expected one argument"),
    ):
        result = run_cli(args)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.endswith(f"\nError: {message}\n")


@pytest.mark.parametrize("unbuffered",[False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_1_without_a_traceback(unbuffered):
    """As in `cohdist verify theorem3 | head -0`, the reader of stdout is
    gone before the command prints: it exits 1 with nothing on stderr.
    The write fails at the first print when Python does not buffer stdout,
    and at the final flush when it does.  A scan of 20001 rows, five batches,
    fails at its first batch's write either way, long before the last."""
    src = str(Path(cohdist.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for args in (["verify", "theorem3"], ["scan", "--steps", "20001"], ["scan", "--steps", "20001", "--format", "json"]):
        read, write = os.pipe()
        os.close(read)
        try:
            command = [sys.executable, "-m", "cohdist.cli", *args]
            proc = subprocess.run(command, stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b""), args


def _fresh_python(code: str) -> str:
    src = str(Path(cohdist.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def test_each_command_loads_only_the_layers_it_runs():
    code = """
import sys
from cohdist.cli import main
def run(args):
    try:
        main(args)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
lazy = (
    "numpy",
    "cohdist.linalg",
    "cohdist.states",
    "cohdist.coherence",
    "cohdist.closed_forms",
    "cohdist.verify",
    "cohdist.optimize",
    "cohdist.protocols",
    "json",
)
print("loaded", [m for m in lazy if m in sys.modules])
run(["measures", "--werner", "0.5"])
print("loaded", [m for m in lazy if m in sys.modules])
run(["protocol", "lqicc", "--p", "0.5"])
print("loaded", [m for m in lazy if m in sys.modules])
"""
    lines = [line for line in _fresh_python(code).splitlines() if line.startswith("loaded")]
    matrix = "'numpy', 'cohdist.linalg', 'cohdist.states', 'cohdist.coherence'"
    assert lines == [
        "loaded []",
        f"loaded [{matrix}]",
        f"loaded [{matrix}, 'cohdist.protocols']",
    ]
    # scan loads the closed forms alone, and json only for --format json;
    # only theorem4 loads the closed forms, the measurement sweep and the
    # protocols it certifies
    code = """
import sys
from cohdist.cli import main
lazy = (
    "numpy",
    "dataclasses",
    "inspect",
    "cohdist.closed_forms",
    "cohdist.verify",
    "cohdist.optimize",
    "cohdist.protocols",
    "json",
)
for args in %r:
    try:
        main(args)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
    print("loaded", [m for m in lazy if m in sys.modules])
"""
    scans = [["scan", "--steps", "3"], ["scan", "--steps", "3", "--format", "json"]]
    suites = [["verify", "theorem3"], ["verify", "lemma1"], ["verify", "theorem4", "--brute-theta", "21", "--brute-phi", "4"]]
    lines = [line for cmds in (scans, suites) for line in _fresh_python(code % cmds).splitlines() if line.startswith("loaded")]
    csv_scan, json_scan = "loaded ['cohdist.closed_forms']", "loaded ['cohdist.closed_forms', 'json']"
    suite = "loaded ['numpy', 'dataclasses', 'inspect', 'cohdist.verify']"
    theorem4 = "loaded ['numpy', 'dataclasses', 'inspect', 'cohdist.closed_forms', 'cohdist.verify', 'cohdist.optimize', 'cohdist.protocols']"
    assert lines == [csv_scan, json_scan, suite, suite, theorem4]


def test_scan_and_rejected_input_start_without_numpy(tmp_path):
    """Only a command that computes on a matrix loads numpy.  The numpy-free
    modules, every scan, and each input the CLI rejects before it builds a
    state, which is every state file that breaks a rule needing no
    spectrum, leave numpy out of sys.modules.  The controls must load it:
    a non-positive file (exit 2), measures --werner 0.5, and, in a process
    of its own, a valid Werner file."""
    good = density_matrix_to_dict(werner(0.5))
    re = good["re"]

    def with_entry(i, j, x):
        rows = [list(row) for row in re]
        rows[i][j] = x
        return {**good, "re": rows}

    # one file per rule that needs no spectrum, each broken alone
    rejected = {
        "non_square": {"dims": [2, 2], "re": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]], "im": [[0.0] * 3] * 2},
        "bad_dims": {**good, "dims": [2, 3]},
        "true_entry": with_entry(1, 1, True),
        "ragged": {**good, "re": [*re[:3], re[3][:2]]},
        "nan": with_entry(0, 1, float("nan")),
        "non_hermitian": with_entry(0, 1, re[0][1] + 1e-3),
        "wrong_trace": {**good, "re": [[1.1 * x for x in row] for row in re]},
        "non_bipartite": {**good, "dims": [4]},
        "not_an_object": [1, 2],
    }
    positivity = {"dims": [2, 2], "re": np.diag([0.6, 0.5, 0.1, -0.2]).tolist(), "im": [[0.0] * 4] * 4}
    for name, payload in {**rejected, "non_positive": positivity, "valid": good}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    (tmp_path / "broken.json").write_text("{not json")
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe\x00{")
    numpy_free = [
        (["scan", "--steps", "5"], 0),
        (["scan", "--steps", "5", "--format", "json"], 0),
        (["scan", "--steps", "5", "--out", str(tmp_path / "sweep.csv")], 0),
        (["measures", "--file", str(tmp_path / "broken.json")], 2),
        (["measures", "--file", str(tmp_path / "not_utf8.json")], 2),
        (["measures", "--file", str(tmp_path / "missing.json")], 3),
        *((["measures", "--file", str(tmp_path / f"{name}.json")], 2) for name in rejected),
        (["measures", "--werner", "1.5"], 2),
        (["protocol", "lqicc", "--p", "1.5"], 2),
        (["verify", "theorem4", "--brute-theta", "10000", "--brute-phi", "10000"], 2),
    ]
    controls = [(["measures", "--file", str(tmp_path / "non_positive.json")], 2), (["measures", "--werner", "0.5"], 0)]
    code = """
import json, sys
def report(step, code=None):
    print("@", json.dumps([step, code, "numpy" in sys.modules]))
import cohdist.scalars
report("import cohdist.scalars")
import cohdist.closed_forms
report("import cohdist.closed_forms")
from cohdist.cli import main
report("import cohdist.cli")
for args in %r:
    try:
        main(args, prog_name="cohdist")
    except SystemExit as exc:
        report(" ".join(args), exc.code)
"""

    def reports(commands):
        out = _fresh_python(code % [args for args, _ in commands])
        return [json.loads(line[2:]) for line in out.splitlines() if line.startswith("@ ")]

    imports = [[f"import cohdist.{m}", None, False] for m in ("scalars", "closed_forms", "cli")]
    runs = [[" ".join(args), exit_code, False] for args, exit_code in numpy_free]
    loads = [[" ".join(args), exit_code, True] for args, exit_code in controls]
    assert reports(numpy_free + controls) == imports + runs + loads
    valid = (["measures", "--file", str(tmp_path / "valid.json")], 0)
    assert reports([valid]) == imports + [[" ".join(valid[0]), 0, True]]
