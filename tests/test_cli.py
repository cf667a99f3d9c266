import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctlsim
from ctlsim.cli import EXIT_IO, EXIT_OK, EXIT_SCHEMA, EXIT_USAGE, main
from ctlsim.scenario import bundled_scenario_path

# sha256 of stdout for commands on the bundled scenario, shared with the benchmark
GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text(encoding="utf-8")
)

SMALL_SWEEP = """
molecule:
  name: 1,2-propanediol
  rotational_constants_ghz: {A: 8.5244, B: 3.6354, C: 2.7887}
  vibrational_modes:
    - {name: OH-stretch, frequency_thz: 100.95, max_quanta: 5}
ctls:
  mode: ro_vibrational
  levels:
    - {vib: 0, J: 0, tau: 0, M: 0}
    - {vib: 1, J: 1, tau: 0, M: 1}
    - {vib: 1, J: 1, tau: 1, M: 0}
temperatures: {t_rot_k: 10.0, t_vib_k: 300.0}
sweep: {t_rot_min_k: 0.01, t_rot_max_k: 300.0, points: 12, log_scale: true}
"""

# no loop level is J = 0 (level 1 is |1_-1>), and both T_rot values are 1e-310 K
TINY_T_ROT = (
    SMALL_SWEEP.replace("{vib: 0, J: 0, tau: 0, M: 0}", "{vib: 0, J: 1, tau: -1, M: 0}")
    .replace("t_rot_k: 10.0", "t_rot_k: 1.0e-310")
    .replace("t_rot_min_k: 0.01", "t_rot_min_k: 1.0e-310")
)


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "small.scenario"
    path.write_text(SMALL_SWEEP, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLevels:
    def test_jmax_one(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "levels", "--jmax", "1", "--scenario", scenario_path
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "j,tau,energy_ghz,degeneracy"
        assert len(lines) == 5  # header + 4 levels
        energies = [float(line.split(",")[2]) for line in lines[2:]]
        assert energies == pytest.approx([6.4241, 11.3131, 12.1598], abs=1e-6)

    def test_json_format(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "levels", "--jmax", "0", "--scenario", scenario_path,
            "--format", "json",
        )
        assert code == EXIT_OK
        records = json.loads(out)
        assert records == [{"j": 0, "tau": 0, "energy_ghz": 0.0, "degeneracy": 1}]


class TestPopulations:
    def test_single_row(self, capsys, scenario_path):
        code, out, _ = run_cli(capsys, "populations", "--scenario", scenario_path)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "t_rot_k,t_vib_k,p1,p2,p3"
        values = [float(v) for v in lines[1].split(",")]
        assert values[0] == 10.0
        assert values[2] > 0.999999


class TestProtocol:
    def test_left_defect_small(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "protocol", "--chirality", "L", "--scenario", scenario_path,
            "--steps", "500",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 10  # header + 9 matrix entries
        defect = float(lines[1].split(",")[-1])
        assert defect < 1e-8
        # analytic entries of the left-handed composite: diag(1, swap with -i)
        first = lines[1].split(",")
        assert first[0] == "L"
        assert float(first[3]) == 1.0

    def test_both_chiralities(self, capsys, scenario_path):
        code, out, _ = run_cli(
            capsys, "protocol", "--scenario", scenario_path, "--steps", "200"
        )
        assert code == EXIT_OK
        assert len(out.strip().split("\n")) == 19  # header + 2 x 9


class TestFigures:
    def test_fig3_schema_and_values(self, capsys, scenario_path):
        code, out, _ = run_cli(capsys, "figure", "fig3", "--scenario", scenario_path)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "t_rot_k,epsilon_rovib,epsilon_rot"
        assert len(lines) == 13
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(rows[:, 1] > 0.9999)  # ro-vibrational excess stays near 1
        assert np.all(np.diff(rows[:, 2]) <= 0)  # purely rotational decays

    def test_fig2c_schema(self, capsys, scenario_path):
        code, out, _ = run_cli(capsys, "figure", "fig2c", "--scenario", scenario_path)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "t_rot_k,p1,p2,p3"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(rows[:, 1] > 0.999999)  # ground level dominates everywhere

    def test_fig2d_schema(self, capsys, scenario_path):
        code, out, _ = run_cli(capsys, "figure", "fig2d", "--scenario", scenario_path)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "t_rot_k,p1,p2,p3"
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1:] == pytest.approx([1 / 3] * 3, abs=2e-3)

    def test_fig4_schema(self, capsys, scenario_path):
        code, out, _ = run_cli(capsys, "figure", "fig4", "--scenario", scenario_path)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "t_rot_k,P1,P2,P3,eta"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        # eta = P1/2 exactly in the API; the CSV columns are rounded to
        # 9 significant digits independently
        assert rows[:, 4] == pytest.approx(rows[:, 1] / 2.0, rel=1e-8)

    def test_deterministic_output(self, capsys, scenario_path, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["figure", "fig3", "--scenario", scenario_path, "--output", str(out_a)]) == EXIT_OK
        assert main(["figure", "fig3", "--scenario", scenario_path, "--output", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        assert b"\r" not in out_a.read_bytes()
        assert out_a.read_bytes().endswith(b"\n")

    def test_emit_plotscript(self, capsys, scenario_path, tmp_path):
        out = tmp_path / "fig3.csv"
        code, _, _ = run_cli(
            capsys, "figure", "fig3", "--scenario", scenario_path,
            "--output", str(out), "--emit-plotscript",
        )
        assert code == EXIT_OK
        script = (tmp_path / "fig3.csv.gp").read_text()
        assert "set datafile separator ','" in script
        assert "fig3.csv" in script

    def test_plotscript_quotes_the_data_file_name(self, capsys, scenario_path, tmp_path):
        out = tmp_path / "it's.csv"
        code, _, _ = run_cli(
            capsys, "figure", "fig3", "--scenario", scenario_path,
            "--output", str(out), "--emit-plotscript",
        )
        assert code == EXIT_OK
        script = (tmp_path / "it's.csv.gp").read_text()
        # gnuplot escapes a single quote inside single quotes by doubling it
        assert "plot 'it''s.csv' using 1:2 with lines" in script
        assert "'it's.csv'" not in script

    def test_plotscript_requires_output(self, capsys, scenario_path):
        code, _, err = run_cli(
            capsys, "figure", "fig3", "--scenario", scenario_path, "--emit-plotscript"
        )
        assert code == EXIT_USAGE
        assert "--output" in err

    def test_plotscript_requires_csv(self, capsys, scenario_path, tmp_path):
        out = tmp_path / "fig3.json"
        code, _, err = run_cli(
            capsys, "figure", "fig3", "--scenario", scenario_path,
            "--output", str(out), "--format", "json", "--emit-plotscript",
        )
        assert code == EXIT_USAGE
        assert "--format csv" in err
        assert list(tmp_path.iterdir()) == [Path(scenario_path)]


class TestScenarioHandling:
    def test_env_variable_default(self, capsys, scenario_path, monkeypatch):
        monkeypatch.setenv("CTLS_SCENARIO_PATH", scenario_path)
        code, out, _ = run_cli(capsys, "populations")
        assert code == EXIT_OK
        assert "p1" in out

    def test_bundled_default(self, capsys, monkeypatch):
        monkeypatch.delenv("CTLS_SCENARIO_PATH", raising=False)
        assert bundled_scenario_path().exists()
        code, out, _ = run_cli(capsys, "levels", "--jmax", "0")
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_bundled_output_matches_golden_digest(self, capsys, monkeypatch, command):
        monkeypatch.delenv("CTLS_SCENARIO_PATH", raising=False)
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command]

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "populations", "--scenario", str(tmp_path / "absent.scenario")
        )
        assert code == EXIT_IO
        assert "scenario" in err

    def test_invalid_schema_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text(
            SMALL_SWEEP.replace("{A: 8.5244, B: 3.6354, C: 2.7887}", "{A: 1.0, B: 3.6, C: 2.7}"),
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "populations", "--scenario", str(bad))
        assert code == EXIT_SCHEMA
        assert "A >= B >= C" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("A: 8.5244", "A: 1" + "0" * 400, "molecule.rotational_constants_ghz.A: int too large"),
            ("t_rot_k: 10.0", "t_rot_k: 1" + "0" * 400, "temperatures.t_rot_k: int too large"),
            (
                "mode: ro_vibrational",
                "mode: bogus",
                "ctls.mode: mode must be one of ('ro_vibrational', 'purely_rotational'), "
                "got 'bogus'",
            ),
        ],
        ids=["huge-int-A", "huge-int-t_rot", "unknown-mode"],
    )
    def test_bad_value_exit_3(self, capsys, tmp_path, old, new, message):
        bad = tmp_path / "bad.scenario"
        bad.write_text(SMALL_SWEEP.replace(old, new), encoding="utf-8")
        code, out, err = run_cli(capsys, "populations", "--scenario", str(bad))
        assert code == EXIT_SCHEMA
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("command", ["levels", "protocol", "populations"])
    @pytest.mark.parametrize(
        "new",
        ["{vib: 1, J: 1, tau: 0, M: 1}", "{vib: 1, J: 1, tau: 5, M: 0}"],
        ids=["duplicate-level", "tau-out-of-range"],
    )
    def test_bad_loop_exit_3(self, capsys, tmp_path, command, new):
        bad = tmp_path / "bad.scenario"
        bad.write_text(
            SMALL_SWEEP.replace("{vib: 1, J: 1, tau: 1, M: 0}", new), encoding="utf-8"
        )
        code, out, err = run_cli(capsys, command, "--scenario", str(bad))
        assert code == EXIT_SCHEMA
        assert out == ""
        assert "ctls.levels" in err

    def test_unknown_subcommand_exit_64(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag_exit_64(self, capsys, scenario_path):
        assert main(["levels", "--scenario", scenario_path, "--bogus"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [["levels", "--jmax", "-1"], ["protocol", "--steps", "0"], ["protocol", "--steps", "-5"]],
        ids=["jmax-negative", "steps-zero", "steps-negative"],
    )
    def test_bad_flag_value_exit_64(self, capsys, scenario_path, argv):
        code, out, err = run_cli(capsys, *argv, "--scenario", scenario_path)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"argument {argv[1]}: must be at least" in err

    def test_negative_zero_temperature_reads_as_zero(self, capsys, tmp_path):
        path = tmp_path / "zero.scenario"
        path.write_text(
            SMALL_SWEEP.replace("{t_rot_k: 10.0, t_vib_k: 300.0}", "{t_rot_k: -0.0, t_vib_k: -0.0}"),
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "populations", "--scenario", str(path))
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("0.00000000e+00,0.00000000e+00,")
        code, out, _ = run_cli(capsys, "populations", "--scenario", str(path), "--dump-config")
        assert code == EXIT_OK
        assert "  t_rot_k: 0.0\n  t_vib_k: 0.0\n" in out

    @pytest.mark.parametrize(
        "old, new",
        [
            ("t_vib_k: 300.0", "t_vib_k: 1.0e-310"),
            ("frequency_thz: 100.95", "frequency_thz: 1.0e+306"),
        ],
        ids=["tiny-T_vib", "huge-frequency"],
    )
    def test_overflowing_vibrational_exponent_yields_the_cold_result(
        self, capsys, tmp_path, old, new
    ):
        cold = tmp_path / "cold.scenario"
        cold.write_text(SMALL_SWEEP.replace("t_vib_k: 300.0", "t_vib_k: 0.0"), encoding="utf-8")
        path = tmp_path / "overflow.scenario"
        path.write_text(SMALL_SWEEP.replace(old, new), encoding="utf-8")
        code, out, err = run_cli(capsys, "yield", "--scenario", str(path))
        assert code == EXIT_OK, err
        assert out == run_cli(capsys, "yield", "--scenario", str(cold))[1]

    @pytest.mark.parametrize(
        "argv, first_row",
        [
            (["excess"], "1.00000000e-310,1.00000000e+00"),
            (["populations"], "1.00000000e-310,3.00000000e+02,1.00000000e+00,0.00000000e+00,0.00000000e+00"),
            (["figure", "fig3"], "1.00000000e-310,1.00000000e+00,1.00000000e+00"),
        ],
        ids=["excess", "populations", "fig3"],
    )
    def test_overflowing_rotational_exponents_yield_the_cold_result(
        self, capsys, tmp_path, argv, first_row
    ):
        # every rotational exponent is infinite at 1e-310 K: the population
        # collapses onto the lowest rotational level, |1_-1>
        path = tmp_path / "tiny.scenario"
        path.write_text(TINY_T_ROT, encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--scenario", str(path))
        assert code == EXIT_OK, err
        assert out.splitlines()[1] == first_row

    def test_vibration_decides_between_rotationally_tied_levels(self, capsys, tmp_path):
        # |0, 1_-1> and |1, 1_-1> tie in rotational energy; at 1e-310 K the
        # rotational factor keeps only them and T_vib = 300 K splits them
        tied = SMALL_SWEEP.replace(
            """    - {vib: 0, J: 0, tau: 0, M: 0}
    - {vib: 1, J: 1, tau: 0, M: 1}
    - {vib: 1, J: 1, tau: 1, M: 0}""",
            """    - {vib: 0, J: 1, tau: -1, M: 0}
    - {vib: 1, J: 1, tau: -1, M: 0}
    - {vib: 1, J: 1, tau: 0, M: 0}""",
        )
        rows = {}
        for t_rot in ("1.0e-310", "0.0"):
            path = tmp_path / f"tied-{t_rot}.scenario"
            path.write_text(tied.replace("t_rot_k: 10.0", f"t_rot_k: {t_rot}"), encoding="utf-8")
            code, out, err = run_cli(capsys, "populations", "--scenario", str(path))
            assert code == EXIT_OK, err
            rows[t_rot] = out.splitlines()[1].split(",")
        assert rows["1.0e-310"][1:] == rows["0.0"][1:]
        p1, p2, p3 = map(float, rows["1.0e-310"][2:])
        assert 0.0 < p2 < 1e-6 and p3 == 0.0

    def test_tiny_temperatures_exit_cleanly_with_an_empty_stderr(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(ctlsim.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        # every exponent of the loop, the partition sum and the shares overflows
        path = tmp_path / "tiny.scenario"
        path.write_text(TINY_T_ROT.replace("t_vib_k: 300.0", "t_vib_k: 1.0e-310"), encoding="utf-8")
        for command in ("excess", "yield"):
            result = subprocess.run(
                [sys.executable, "-m", "ctlsim.cli", command, "--scenario", str(path)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (result.returncode, result.stderr) == (EXIT_OK, ""), command

    def test_dump_config_round_trips(self, capsys, scenario_path, tmp_path):
        code, out, _ = run_cli(
            capsys, "populations", "--scenario", scenario_path, "--dump-config"
        )
        assert code == EXIT_OK
        echoed = tmp_path / "echoed.scenario"
        echoed.write_text(out, encoding="utf-8")
        code2, out2, _ = run_cli(
            capsys, "populations", "--scenario", str(echoed), "--dump-config"
        )
        assert code2 == EXIT_OK
        assert out2 == out


class TestOutputFile:
    def test_output_written_with_line_feeds(self, capsys, scenario_path, tmp_path):
        target = tmp_path / "levels.csv"
        code, out, _ = run_cli(
            capsys, "levels", "--jmax", "1", "--scenario", scenario_path,
            "--output", str(target),
        )
        assert code == EXIT_OK
        assert out == ""  # nothing on stdout when --output is used
        data = target.read_bytes()
        assert data.count(b"\n") == 5
        assert b"\r" not in data

    def test_json_output(self, capsys, scenario_path, tmp_path):
        target = tmp_path / "pops.json"
        code, _, _ = run_cli(
            capsys, "populations", "--scenario", scenario_path,
            "--output", str(target), "--format", "json",
        )
        assert code == EXIT_OK
        records = json.loads(target.read_text())
        assert records[0]["t_rot_k"] == 10.0


    def test_unwritable_output_exit_2(self, capsys, scenario_path, tmp_path):
        target = tmp_path / "missing" / "levels.csv"
        code, out, err = run_cli(
            capsys, "levels", "--scenario", scenario_path, "--output", str(target)
        )
        assert code == EXIT_IO
        assert out == ""
        assert err.startswith("ctlsim: cannot write output: ")
        assert str(target) in err

    def test_unwritable_plotscript_exit_2(self, capsys, scenario_path, tmp_path):
        target = tmp_path / "fig3.csv"
        (tmp_path / "fig3.csv.gp").mkdir()  # the script path is taken by a directory
        code, _, err = run_cli(
            capsys, "figure", "fig3", "--scenario", scenario_path,
            "--output", str(target), "--emit-plotscript",
        )
        assert code == EXIT_IO
        assert err.startswith("ctlsim: cannot write output: ")
        assert "fig3.csv.gp" in err
        assert target.read_text().startswith("t_rot_k,epsilon_rovib,epsilon_rot\n")


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ)
    src = str(Path(ctlsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probe = "import sys, ctlsim.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
