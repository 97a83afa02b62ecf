import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import cohdist
import cohdist.verify as verify_mod
from cohdist.cli import main
from cohdist.optimize import qi_werner_closed_form, rate_werner_closed_form
from cohdist.states import density_matrix_to_dict, maximally_mixed, werner

MEASURES_WERNER_05 = (
    "S(rho) = 1.548795\n"
    "C_re(rho_B) = 0.000000\n"
    "C_re^A|B(rho) = 0.262483\n"
    "D^A|B(rho) = 0.262483\n"
)

SCAN_3_STEPS = (
    "p,qi,rate,gap\n"
    "0.000000,0.000000,0.000000,0.000000\n"
    "0.500000,0.262483,0.188722,0.073761\n"
    "1.000000,1.000000,1.000000,0.000000\n"
)


@pytest.fixture()
def runner():
    return CliRunner()


class TestMeasures:
    def test_werner_golden_output(self, runner):
        result = runner.invoke(main, ["measures", "--werner", "0.5"])
        assert result.exit_code == 0
        assert result.output == MEASURES_WERNER_05

    def test_exactly_one_source_required(self, runner):
        assert runner.invoke(main, ["measures"]).exit_code == 2
        both = ["measures", "--werner", "0.5", "--file", "x.json"]
        assert runner.invoke(main, both).exit_code == 2

    def test_out_of_range_p(self, runner):
        result = runner.invoke(main, ["measures", "--werner", "1.5"])
        assert result.exit_code == 2
        assert "mixing parameter must lie in [0, 1], got 1.5" in result.stderr

    def test_file_input_matches_werner(self, runner, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(density_matrix_to_dict(werner(0.5))))
        result = runner.invoke(main, ["measures", "--file", str(path)])
        assert result.exit_code == 0
        assert result.output == MEASURES_WERNER_05

    def test_missing_file_is_an_io_error(self, runner, tmp_path):
        result = runner.invoke(main, ["measures", "--file", str(tmp_path / "nope.json")])
        assert result.exit_code == 3
        assert "cannot read state file" in result.stderr

    def test_invalid_json_is_a_usage_error(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert runner.invoke(main, ["measures", "--file", str(path)]).exit_code == 2

    def test_malformed_payload_is_a_usage_error(self, runner, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"dims": [2, 2]}))
        assert runner.invoke(main, ["measures", "--file", str(path)]).exit_code == 2

    def test_non_bipartite_state_is_a_usage_error(self, runner, tmp_path):
        payload = density_matrix_to_dict(maximally_mixed(4))
        path = tmp_path / "mono.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["measures", "--file", str(path)])
        assert result.exit_code == 2
        assert "bipartite" in result.stderr

    def test_invalid_state_matrix_is_a_usage_error(self, runner, tmp_path):
        payload = density_matrix_to_dict(maximally_mixed(2))
        payload["re"] = [[1.0, 0.0], [0.0, 1.0]]  # trace 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert runner.invoke(main, ["measures", "--file", str(path)]).exit_code == 2

    def test_non_finite_entry_is_a_usage_error(self, runner, tmp_path):
        payload = density_matrix_to_dict(werner(0.5))
        payload["re"][0][1] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))  # writes the bare NaN token
        assert "NaN" in path.read_text()
        result = runner.invoke(main, ["measures", "--file", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "non-finite" in result.stderr


class TestProtocol:
    def test_lqicc_golden_output(self, runner):
        result = runner.invoke(main, ["protocol", "lqicc", "--p", "0.5"])
        assert result.exit_code == 0
        assert result.output == (
            "protocol = lqicc\n"
            "p = 0.500000\n"
            "outcome +1: probability = 0.500000\n"
            "correction =\n"
            "  [1.000000+0.000000j, 0.000000+0.000000j]\n"
            "  [0.000000+0.000000j, 1.000000+0.000000j]\n"
            "bob state =\n"
            "  [0.500000+0.000000j, 0.250000+0.000000j]\n"
            "  [0.250000+0.000000j, 0.500000+0.000000j]\n"
            "outcome -1: probability = 0.500000\n"
            "correction =\n"
            "  [1.000000+0.000000j, 0.000000+0.000000j]\n"
            "  [0.000000+0.000000j, -1.000000+0.000000j]\n"
            "bob state =\n"
            "  [0.500000+0.000000j, 0.250000+0.000000j]\n"
            "  [0.250000+0.000000j, 0.500000+0.000000j]\n"
            "rate = 0.188722\n"
        )

    def test_licc_output(self, runner):
        result = runner.invoke(main, ["protocol", "licc", "--p", "0.5"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "protocol = licc"
        assert "outcome 1: probability = 0.500000" in lines
        assert "outcome 2: probability = 0.500000" in lines
        assert "  [0.000000-1.000000j, 0.000000+0.000000j]" in lines
        assert "  [0.000000+1.000000j, 0.000000+0.000000j]" in lines
        assert lines[-1] == "rate = 0.188722"

    def test_validation(self, runner):
        assert runner.invoke(main, ["protocol", "bogus", "--p", "0.5"]).exit_code == 2
        assert runner.invoke(main, ["protocol", "lqicc"]).exit_code == 2
        assert runner.invoke(main, ["protocol", "lqicc", "--p", "1.2"]).exit_code == 2


class TestScan:
    def test_stdout_csv_golden(self, runner):
        result = runner.invoke(main, ["scan", "--from", "0", "--to", "1", "--steps", "3"])
        assert result.exit_code == 0
        assert result.output == SCAN_3_STEPS

    def test_byte_identical_across_runs(self, runner):
        args = ["scan", "--from", "0", "--to", "1", "--steps", "25"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_json_format(self, runner):
        result = runner.invoke(main, ["scan", "--steps", "3", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert [r["p"] for r in rows] == [0.0, 0.5, 1.0]
        assert rows[1]["qi"] == qi_werner_closed_form(0.5)
        assert rows[1]["rate"] == rate_werner_closed_form(0.5)

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["scan", "--steps", "3", "--out", str(out)])
        assert result.exit_code == 0
        assert result.output == f"wrote 3 records to {out}\n"
        assert out.read_text() == SCAN_3_STEPS

    def test_validation(self, runner):
        assert runner.invoke(main, ["scan", "--steps", "1"]).exit_code == 2
        assert runner.invoke(main, ["scan", "--from", "0.7", "--to", "0.3"]).exit_code == 2

    def test_huge_step_count_is_rejected_at_once(self, runner):
        result = runner.invoke(main, ["scan", "--steps", "1000000000"])
        assert result.exit_code == 2
        assert "steps must be at most 1000001" in result.stderr
        assert result.stdout == ""

    def test_unwritable_target_is_an_io_error(self, runner, tmp_path):
        out = tmp_path / "missing" / "sweep.csv"
        result = runner.invoke(main, ["scan", "--steps", "3", "--out", str(out)])
        assert result.exit_code == 3
        assert "cannot write" in result.stderr


class TestVerify:
    def test_theorem3_passes(self, runner):
        result = runner.invoke(main, ["verify", "theorem3"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert all(line.startswith("[PASS] theorem3:") for line in lines[:-1])
        assert lines[-1] == "2/2 checks passed"

    def test_lemma1_is_deterministic_for_a_fixed_seed(self, runner):
        args = ["verify", "lemma1", "--seed", "42"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        assert first.output.endswith("104/104 checks passed\n")

    def test_theorem4_passes_on_a_reduced_sweep(self, runner):
        args = ["verify", "theorem4", "--brute-theta", "121", "--brute-phi", "16"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert "gap positive on the interior grid" in result.output

    def test_unknown_suite_is_a_usage_error(self, runner):
        assert runner.invoke(main, ["verify", "bogus"]).exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["theorem4", "--brute-theta", "1"],
            ["theorem4", "--brute-phi", "0"],
            ["lemma1", "--seed", "-1"],
        ],
        ids=["brute-theta", "brute-phi", "seed"],
    )
    def test_out_of_range_options_are_usage_errors(self, runner, args):
        result = runner.invoke(main, ["verify", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "Invalid value" in result.stderr
        assert result.stdout == ""

    def test_any_failing_check_exits_one(self, runner, monkeypatch):
        forced = verify_mod.SuiteResult(
            "theorem3", (verify_mod.CheckLine("forced failure", False, "broken"),)
        )
        monkeypatch.setattr(verify_mod, "theorem3_suite", lambda: forced)
        result = runner.invoke(main, ["verify", "theorem3"])
        assert result.exit_code == 1
        assert "[FAIL] theorem3: forced failure (broken)" in result.output
        assert "0/1 checks passed" in result.output


def test_importing_the_cli_does_not_load_scipy():
    src = str(Path(cohdist.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, cohdist.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\n"
