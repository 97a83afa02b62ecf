import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cohdist
import cohdist.verify as verify_mod
from cohdist import cli
from cohdist.cli import main
from cohdist.optimize import qi_werner_closed_form, rate_werner_closed_form
from cohdist.states import (
    density_matrix_to_dict,
    maximally_mixed,
    random_zero_discord_spec,
    werner,
    zero_discord_state,
)

MEASURES_WERNER_05 = (
    "S(rho) = 1.548795\n"
    "C_re(rho_B) = 0.000000\n"
    "C_re^A|B(rho) = 0.262483\n"
    "D^A|B(rho) = 0.262483\n"
)

THEOREM4_21_4 = (
    "[PASS] theorem4: p=0.1: protocols and sweep meet the closed form (rate=0.007226 lqicc=0.007226 licc=0.007226 brute=0.007226 gap=0.005963)\n"
    "[PASS] theorem4: p=0.2: protocols and sweep meet the closed form (rate=0.029049 lqicc=0.029049 licc=0.029049 brute=0.029049 gap=0.019973)\n"
    "[PASS] theorem4: p=0.3: protocols and sweep meet the closed form (rate=0.065932 lqicc=0.065932 licc=0.065932 brute=0.065932 gap=0.037835)\n"
    "[PASS] theorem4: p=0.4: protocols and sweep meet the closed form (rate=0.118709 lqicc=0.118709 licc=0.118709 brute=0.118709 gap=0.056574)\n"
    "[PASS] theorem4: p=0.5: protocols and sweep meet the closed form (rate=0.188722 lqicc=0.188722 licc=0.188722 brute=0.188722 gap=0.073761)\n"
    "[PASS] theorem4: p=0.6: protocols and sweep meet the closed form (rate=0.278072 lqicc=0.278072 licc=0.278072 brute=0.278072 gap=0.087077)\n"
    "[PASS] theorem4: p=0.7: protocols and sweep meet the closed form (rate=0.390160 lqicc=0.390160 licc=0.390160 brute=0.390160 gap=0.093871)\n"
    "[PASS] theorem4: p=0.8: protocols and sweep meet the closed form (rate=0.531004 lqicc=0.531004 licc=0.531004 brute=0.531004 gap=0.090407)\n"
    "[PASS] theorem4: p=0.9: protocols and sweep meet the closed form (rate=0.713603 lqicc=0.713603 licc=0.713603 brute=0.713603 gap=0.069610)\n"
    "[PASS] theorem4: gap positive on the interior grid (min over k/1000 grid = 7.199e-07 at p=0.001)\n"
    "[PASS] theorem4: gap convex below 1/3, concave above (d2(0.2)=0.3757 d2(0.5)=-0.3847)\n"
    "11/11 checks passed\n"
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

    def test_values_that_round_to_zero_print_without_a_sign(self, runner, tmp_path, monkeypatch):
        """Zero-discord states often compute a discord of order -1e-16 to
        -1e-15; none of the four lines may read -0.000000, while a value
        that rounds to a nonzero negative keeps its sign."""
        rng = np.random.default_rng(0)
        outputs = []
        for da, db in ((2, 2), (2, 3), (2, 4), (3, 3)) * 6:
            path = tmp_path / "state.json"
            rho = zero_discord_state(random_zero_discord_spec(rng, da, db))
            path.write_text(json.dumps(density_matrix_to_dict(rho)))
            outputs.append(runner.invoke(main, ["measures", "--file", str(path)]))
        monkeypatch.setattr(cli, "basis_dependent_discord", lambda rho: -1e-15)
        outputs.append(runner.invoke(main, ["measures", "--werner", "0.5"]))
        assert outputs[-1].output.endswith("D^A|B(rho) = 0.000000\n")
        monkeypatch.setattr(cli, "basis_dependent_discord", lambda rho: -6e-7)
        assert runner.invoke(main, ["measures", "--werner", "0.5"]).output.endswith("D^A|B(rho) = -0.000001\n")
        for result in outputs:
            assert result.exit_code == 0
            assert "-0.000000" not in result.output

    def test_missing_file_is_an_io_error(self, runner, tmp_path):
        result = runner.invoke(main, ["measures", "--file", str(tmp_path / "nope.json")])
        assert result.exit_code == 3
        assert "cannot read state file" in result.stderr

    def test_invalid_json_is_a_usage_error(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert runner.invoke(main, ["measures", "--file", str(path)]).exit_code == 2

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00{", b"[" * 100000], ids=["non-utf8", "deeply-nested"])
    def test_undecodable_file_is_a_usage_error(self, runner, tmp_path, content):
        # json.load raises UnicodeDecodeError and RecursionError, not JSONDecodeError
        path = tmp_path / "state.json"
        path.write_bytes(content)
        result = runner.invoke(main, ["measures", "--file", str(path)])
        assert result.exit_code == 2
        assert "state file is not valid JSON" in result.stderr

    def test_malformed_payload_is_a_usage_error(self, runner, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"dims": [2, 2]}))
        assert runner.invoke(main, ["measures", "--file", str(path)]).exit_code == 2

    @pytest.mark.parametrize("dims", [[2.9, 2.2], "22"], ids=["float", "string"])
    def test_non_integer_dims_are_a_usage_error(self, runner, tmp_path, dims):
        # int() would truncate both to a valid split of a smaller matrix
        payload = density_matrix_to_dict(maximally_mixed(4))
        payload["dims"] = dims
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["measures", "--file", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_bool_dim_is_a_usage_error(self, runner, tmp_path):
        # operator.index(True) is 1, so [true, 4] would load as a 1x4 split
        payload = density_matrix_to_dict(maximally_mixed(4))
        payload["dims"] = [True, 4]
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(payload))
        assert "true" in path.read_text()
        result = runner.invoke(main, ["measures", "--file", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""

    @pytest.mark.parametrize("key, entry", [("re", "0.25"), ("im", False)], ids=["string", "bool"])
    def test_non_number_entry_is_a_usage_error(self, runner, tmp_path, key, entry):
        payload = density_matrix_to_dict(werner(0.5))
        payload[key][1][1] = entry
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["measures", "--file", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "entries must be numbers" in result.stderr

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
        assert result.output == (
            "protocol = licc\n"
            "p = 0.500000\n"
            "outcome 1: probability = 0.500000\n"
            "correction =\n"
            "  [0.000000+0.000000j, 1.000000+0.000000j]\n"
            "  [0.000000-1.000000j, 0.000000+0.000000j]\n"
            "bob state =\n"
            "  [0.500000+0.000000j, 0.250000+0.000000j]\n"
            "  [0.250000+0.000000j, 0.500000+0.000000j]\n"
            "outcome 2: probability = 0.500000\n"
            "correction =\n"
            "  [0.000000+0.000000j, 1.000000+0.000000j]\n"
            "  [0.000000+1.000000j, 0.000000+0.000000j]\n"
            "bob state =\n"
            "  [0.500000+0.000000j, 0.250000+0.000000j]\n"
            "  [0.250000+0.000000j, 0.500000+0.000000j]\n"
            "rate = 0.188722\n"
        )

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

    def test_theorem4_passes_on_an_odd_theta_grid(self, runner):
        """An odd --brute-theta puts theta = pi/2, the optimum, on the grid."""
        args = ["verify", "theorem4", "--brute-theta", "21", "--brute-phi", "4"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output == THEOREM4_21_4

    def test_shifted_curvature_fails_theorem4_with_exit_one(self, runner, monkeypatch):
        """The negative control of the curvature line: gap_second_derivative
        off by 1e-3 where verify reads it keeps both signs right and fails
        only the central-difference check."""
        d2 = verify_mod.gap_second_derivative
        monkeypatch.setattr(verify_mod, "gap_second_derivative", lambda p: d2(p) + 1e-3)
        result = runner.invoke(main, ["verify", "theorem4", "--brute-theta", "21", "--brute-phi", "4"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert lines[-2].startswith("[FAIL] theorem4: gap convex below 1/3, concave above (")
        assert lines[-1] == "10/11 checks passed"

    def test_lemma1_random_specs_print_only_rounding_noise(self, runner):
        """The discord= digits of the random-spec lines are rounding noise,
        not part of the output contract; their size is."""
        result = runner.invoke(main, ["verify", "lemma1"])
        assert result.exit_code == 0
        lines = [x for x in result.output.splitlines() if "random zero-discord spec" in x]
        assert len(lines) == 100
        for line in lines:
            assert line.startswith("[PASS] lemma1: ")
            assert abs(float(line.rsplit("discord=", 1)[1].rstrip(")"))) <= 1e-12

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


def test_importing_the_cli_does_not_load_scipy():
    assert _fresh_python("import sys, cohdist.cli; print('scipy' in sys.modules)") == "False\n"


def test_each_command_loads_only_the_layers_it_runs():
    code = """
import sys
from cohdist.cli import main
lazy = ("cohdist.verify", "cohdist.optimize", "cohdist.protocols", "json")
print("loaded", [m for m in lazy if m in sys.modules])
main(["measures", "--werner", "0.5"], standalone_mode=False)
print("loaded", [m for m in lazy if m in sys.modules])
main(["protocol", "lqicc", "--p", "0.5"], standalone_mode=False)
print("loaded", [m for m in lazy if m in sys.modules])
"""
    lines = [line for line in _fresh_python(code).splitlines() if line.startswith("loaded")]
    at_import, after_measures, after_protocol = lines
    assert at_import == "loaded []"
    assert after_measures == "loaded []"
    assert "'cohdist.protocols'" in after_protocol
    assert "'cohdist.verify'" not in after_protocol
    assert "'cohdist.optimize'" not in after_protocol
