import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctlsim
from ctlsim import cli
from ctlsim.cli import EXIT_FAILURE, EXIT_IO, EXIT_OK, EXIT_SCHEMA, EXIT_USAGE, main
from ctlsim.propagator import run_protocol
from ctlsim.scenario import bundled_scenario_path

# sha256 of stdout for commands on the bundled scenario, shared with the benchmark
GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text(encoding="utf-8")
)

# sha256 of stdout on the bundled scenario for commands the benchmark does
# not run: empty and large level tables, and JSON records that mix string,
# integer and float columns
PINNED = {
    "levels --jmax 0": "41d035364f15387087a285f578eaceed87af9538f2381cd0044fb36928e5e4ec",
    "levels --jmax 0 --format json": (
        "1174e1bc1538c2488e52c0d70a0f5d8f0ecf5356331297dd60055cffff35636e"
    ),
    "levels --jmax 1": "b5e999447be300b0522992880005ba017f46faece9d1605bef2eaecbc443ab69",
    "levels --jmax 1 --format json": (
        "72c7435ea29a0a084a1d4c10fd44ffc72993bc56a879656d108711c90153dba6"
    ),
    "levels --jmax 200": "ecf64bd8eb209f820647259ffef29cb44cc89da0d52eccfc595cbf936f7277a4",
    "levels --jmax 200 --format json": (
        "c18ae5090b3653f8977bd5331dab7fa95dd4cf8c9315bdba90e81ef183c92458"
    ),
    "protocol --steps 13 --format json": (
        "c00904581dd7ecb08b239abb4a4618f1f0cc627f2c2668ae6acf07dbd62b6514"
    ),
    "figure fig2c --format json": (
        "2f41512a66100e1277bad5e3b58df5422cfd52e926df44832123caec7bab557b"
    ),
}
DIGESTS = {**GOLDEN, **PINNED}

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


BUNDLED_LOOP = """    - {vib: 0, J: 0, tau: 0, M: 0}
    - {vib: 1, J: 1, tau: 0, M: 1}
    - {vib: 1, J: 1, tau: 1, M: 0}"""

# the bundled scenario down to 1e-6 K with |2> the loop's lowest rotational
# level: at the coldest points both |1> and |3> underflow to 0
LEVEL_2_LOWEST = {
    "purely-rotational": (
        "mode: purely_rotational",
        """    - {vib: 0, J: 1, tau: -1, M: 0}
    - {vib: 0, J: 0, tau: 0, M: 0}
    - {vib: 0, J: 1, tau: 0, M: 0}""",
    ),
    "ro-vibrational": (
        "mode: ro_vibrational",
        """    - {vib: 0, J: 1, tau: 1, M: 0}
    - {vib: 1, J: 0, tau: 0, M: 0}
    - {vib: 1, J: 1, tau: 1, M: 0}""",
    ),
}


def level_2_lowest_scenario(tmp_path, loop: str) -> str:
    mode, levels = LEVEL_2_LOWEST[loop]
    text = (
        bundled_scenario_path().read_text(encoding="utf-8")
        .replace("mode: ro_vibrational", mode)
        .replace(BUNDLED_LOOP, levels)
        .replace("t_rot_min_k: 0.001", "t_rot_min_k: 1.0e-6")
    )
    assert levels in text and "t_rot_min_k: 1.0e-6" in text
    path = tmp_path / f"{loop}.scenario"
    path.write_text(text, encoding="utf-8")
    return str(path)


# the whole gnuplot script of each figure: one series per data column after
# t_rot_k, labelled and numbered in column order
PLOTSCRIPTS = {
    "fig2c": """\
set datafile separator ','
set logscale x
set xlabel 'T_rot (K)'
set title 'loop populations, ro-vibrational'
set key left bottom
plot 'fig2c.csv' using 1:2 with lines title 'p1', \\
    'fig2c.csv' using 1:3 with lines title 'p2', \\
    'fig2c.csv' using 1:4 with lines title 'p3'
""",
    "fig2d": """\
set datafile separator ','
set logscale x
set xlabel 'T_rot (K)'
set title 'loop populations, purely rotational'
set key left bottom
plot 'fig2d.csv' using 1:2 with lines title 'p1', \\
    'fig2d.csv' using 1:3 with lines title 'p2', \\
    'fig2d.csv' using 1:4 with lines title 'p3'
""",
    "fig3": """\
set datafile separator ','
set logscale x
set xlabel 'T_rot (K)'
set title 'enantiomeric excess'
set key left bottom
plot 'fig3.csv' using 1:2 with lines title 'ro-vibrational', \\
    'fig3.csv' using 1:3 with lines title 'purely rotational'
""",
    "fig4": """\
set datafile separator ','
set logscale x
set xlabel 'T_rot (K)'
set title 'whole-manifold proportions and yield'
set key left bottom
plot 'fig4.csv' using 1:2 with lines title 'P1', \\
    'fig4.csv' using 1:3 with lines title 'P2', \\
    'fig4.csv' using 1:4 with lines title 'P3', \\
    'fig4.csv' using 1:5 with lines title 'eta'
""",
}


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

    def test_steps_default_is_run_protocols(self):
        default = inspect.signature(run_protocol).parameters["steps_per_step"].default
        assert cli.build_parser().parse_args(["protocol"]).steps == default

    # sha256 of the CSV on the bundled scenario: any drift in the propagator's
    # last bits changes these
    @pytest.mark.parametrize(
        "command, digest",
        [
            ("protocol", "2f5294bbc6921f88526411276d3408a0aa6ab6e7969e56b1e0e94356e56479a3"),
            (
                "protocol --steps 4096 --chirality both",
                "42f1535fba0f7b0612ab2b8b7cd7555ca7937a4098cf6d15d6b038392b86586d",
            ),
            (
                "protocol --steps 13 --chirality both",
                "2901d4cd44c4d568ae81fde2c6ac20f2e91fe1d5d4398cb9441e0cfed276864d",
            ),
        ],
    )
    def test_bundled_csv_digest(self, capsys, monkeypatch, command, digest):
        monkeypatch.delenv("CTLS_SCENARIO_PATH", raising=False)
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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
        for target, expected in PLOTSCRIPTS.items():
            out = tmp_path / f"{target}.csv"
            code, _, _ = run_cli(
                capsys, "figure", target, "--scenario", scenario_path,
                "--output", str(out), "--emit-plotscript",
            )
            assert code == EXIT_OK
            assert (tmp_path / f"{target}.csv.gp").read_text() == expected, target

    def test_figure_targets_are_the_plotted_ones(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--help")
        assert code == EXIT_OK
        assert "{fig2c,fig2d,fig3,fig4}" in out

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

    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_bundled_output_matches_golden_digest(self, capsys, monkeypatch, command):
        monkeypatch.delenv("CTLS_SCENARIO_PATH", raising=False)
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[command]

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
        "content, message",
        [
            (
                b"\xff" + SMALL_SWEEP.encode(),
                "<document>: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0",
            ),
            (b"- 1\n- 2\n", "<document>: expected a mapping, got list\n"),
            (b"molecule: [\n", "<document>: not valid YAML"),
        ],
        ids=["not-utf-8", "root-list", "invalid-yaml"],
    )
    def test_unreadable_document_exit_3(self, capsys, tmp_path, content, message):
        bad = tmp_path / "bad.scenario"
        bad.write_bytes(content)
        code, out, err = run_cli(capsys, "populations", "--scenario", str(bad))
        assert (code, out) == (EXIT_SCHEMA, "")
        assert err.startswith(f"ctlsim: invalid scenario: {message}")

    @pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump-config"])
    @pytest.mark.parametrize(
        "text, key, line",
        [
            (SMALL_SWEEP + "labeling: tau\nlabeling: ka_kc\n", "labeling", 16),
            (SMALL_SWEEP.replace("propanediol\n", "propanediol\n  name: other\n"), "name", 4),
            (SMALL_SWEEP.replace("t_vib_k: 300.0}", "t_vib_k: 300.0, t_rot_k: 20.0}"), "t_rot_k", 13),
        ],
        ids=["top-level", "section", "flow-mapping"],
    )
    def test_key_written_twice_exit_3(self, capsys, tmp_path, text, key, line, dump):
        bad = tmp_path / "bad.scenario"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "populations", "--scenario", str(bad), *dump)
        assert (code, out) == (EXIT_SCHEMA, "")
        assert err.startswith("ctlsim: invalid scenario: <document>: not valid YAML: ")
        assert f'found duplicate key {key!r}\n  in "<unicode string>", line {line},' in err

    def test_computation_failure_exit_1(self, capsys, scenario_path, monkeypatch):
        # the type is named: str(KeyError('t_rot_k')) is only the quoted key
        for exc, message in (
            (ArithmeticError("the sweep failed"), "ArithmeticError: the sweep failed"),
            (KeyError("t_rot_k"), "KeyError: 't_rot_k'"),
        ):
            def fail(*args, exc=exc):
                raise exc

            monkeypatch.setattr(cli, "yield_sweep", fail)
            code, out, err = run_cli(capsys, "yield", "--scenario", scenario_path)
            assert (code, out, err) == (EXIT_FAILURE, "", f"ctlsim: {message}\n")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("A: 8.5244", "A: 1" + "0" * 400, "molecule.rotational_constants_ghz.A: int too large"),
            ("t_rot_k: 10.0", "t_rot_k: 1" + "0" * 400, "temperatures.t_rot_k: int too large"),
            (
                "max_quanta: 5",
                "max_quanta: 1" + "0" * 400,
                "molecule.vibrational_modes[0]: max_quanta must lie in [1, 2**53]",
            ),
            (
                "mode: ro_vibrational",
                "mode: bogus",
                "ctls.mode: mode must be one of ('ro_vibrational', 'purely_rotational'), "
                "got 'bogus'",
            ),
        ],
        ids=["huge-int-A", "huge-int-t_rot", "huge-int-max_quanta", "unknown-mode"],
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

    @pytest.mark.parametrize(
        "command", ["levels", "populations", "protocol", "excess", "yield", "figure fig2c"]
    )
    def test_sweep_overflowing_floats_exit_3(self, capsys, tmp_path, command):
        # log10 of the largest float rounds up: 10**308.2547 overflows to inf
        bad = tmp_path / "bad.scenario"
        bad.write_text(
            SMALL_SWEEP.replace("t_rot_max_k: 300.0", "t_rot_max_k: 1.7976931348623157e+308"),
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, *command.split(), "--scenario", str(bad))
        assert code == EXIT_SCHEMA
        assert out == ""
        assert err == (
            "ctlsim: invalid scenario: sweep: "
            "t_max_k = 1.7976931348623157e+308 gives a non-finite grid point\n"
        )

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

    @pytest.mark.parametrize("value", ["2.5", "many"])
    def test_non_integer_flag_value_exit_64(self, capsys, scenario_path, value):
        code, out, err = run_cli(capsys, "protocol", "--steps", value, "--scenario", scenario_path)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument --steps: invalid int value: {value!r}" in err

    def test_jmax_beyond_the_level_bound_exit_64(self, capsys, scenario_path):
        code, out, err = run_cli(capsys, "levels", "--jmax", "1001", "--scenario", scenario_path)
        assert (code, out) == (EXIT_USAGE, "")
        assert "argument --jmax: must be at most 1000, got 1001" in err

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

    @pytest.mark.parametrize("loop", list(LEVEL_2_LOWEST))
    def test_excess_takes_its_limit_where_levels_1_and_3_underflow(self, capsys, tmp_path, loop):
        path = level_2_lowest_scenario(tmp_path, loop)
        code, out, err = run_cli(capsys, "excess", "--scenario", path)
        assert (code, err) == (EXIT_OK, "")
        rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        assert rows[0, 0] == 1e-6
        assert ((0.0 <= rows[:, 1]) & (rows[:, 1] <= 1.0)).all()
        if loop == "purely-rotational":
            # |1_-1> lies below |1_0>: the cold excess is 1
            assert rows[0, 1] == 1.0
        else:
            # |1> and |3> tie in rotational energy, so T_vib alone splits them
            assert rows[0, 1] == pytest.approx(0.999999806, abs=1e-9)

    def test_fig3_on_a_level_2_lowest_loop(self, capsys, tmp_path):
        path = level_2_lowest_scenario(tmp_path, "purely-rotational")
        code, out, err = run_cli(capsys, "figure", "fig3", "--scenario", path)
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[1] == "1.00000000e-06,1.00000000e+00,1.00000000e+00"
        # the ro-vibrational loop made purely rotational repeats J = 1, tau = 1
        path = level_2_lowest_scenario(tmp_path, "ro-vibrational")
        code, out, err = run_cli(capsys, "figure", "fig3", "--scenario", path)
        assert (code, out) == (EXIT_SCHEMA, "")
        assert "ctls.levels: the three levels must be distinct" in err

    def test_mode_override_error_names_the_loop_it_built(self, capsys, tmp_path):
        # levels 1 and 3 differ only in their vibrational quantum: the
        # scenario's ro-vibrational loop runs, its purely rotational
        # override repeats J = 1, tau = 1
        path = level_2_lowest_scenario(tmp_path, "ro-vibrational")
        for command in ("excess", "yield", "populations", "figure fig2c"):
            code, _, err = run_cli(capsys, *command.split(), "--scenario", path)
            assert (code, err) == (EXIT_OK, ""), command
        for command in ("figure fig2d", "figure fig3"):
            code, out, err = run_cli(capsys, *command.split(), "--scenario", path)
            assert (code, out) == (EXIT_SCHEMA, ""), command
            assert (
                "ctls.levels: the three levels must be distinct"
                " in the purely_rotational loop this command builds"
            ) in err

    @pytest.mark.parametrize("j", [1001, 100000])
    def test_level_j_beyond_the_bound_exit_3(self, capsys, tmp_path, j):
        path = tmp_path / "big-j.scenario"
        level = f"{{vib: 1, J: {j}, tau: 1, M: 0}}"
        path.write_text(SMALL_SWEEP.replace("{vib: 1, J: 1, tau: 1, M: 0}", level), encoding="utf-8")
        code, out, err = run_cli(capsys, "levels", "--scenario", str(path))
        assert (code, out) == (EXIT_SCHEMA, "")
        assert f"ctls.levels[2]: J must be at most 1000, got {j}" in err

    @pytest.mark.parametrize("labeling", ["tau", "ka_kc"])
    def test_negative_level_j_exit_3(self, capsys, tmp_path, labeling):
        # named by the J rule, not by a digit that J = -1 leaves no room for
        path = tmp_path / "negative-j.scenario"
        level = "{vib: 0, J: -1, tau: 0, M: 0}"
        text = SMALL_SWEEP.replace("{vib: 0, J: 0, tau: 0, M: 0}", level)
        path.write_text(text + f"labeling: {labeling}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "populations", "--scenario", str(path))
        assert (code, out) == (EXIT_SCHEMA, "")
        assert err == "ctlsim: invalid scenario: ctls.levels[0]: J must be non-negative, got -1\n"

    def test_level_j_at_the_bound_parses(self, capsys, tmp_path):
        path = tmp_path / "j-1000.scenario"
        path.write_text(
            SMALL_SWEEP.replace("{vib: 1, J: 1, tau: 1, M: 0}", "{vib: 1, J: 1000, tau: 1, M: 0}"),
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "populations", "--scenario", str(path), "--dump-config")
        assert (code, err) == (EXIT_OK, "")
        assert "J: 1000" in out

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
