import pytest
import yaml

from ctlsim.scenario import (
    ScenarioError,
    bundled_scenario_path,
    dump_scenario,
    parse_scenario,
    resolve_scenario_path,
    scenario_from_mapping,
    to_ctls_config,
)
from ctlsim.transfer import PURELY_ROTATIONAL, RO_VIBRATIONAL

MINIMAL = """
molecule:
  name: test-molecule
  rotational_constants_ghz: {A: 3.0, B: 2.0, C: 1.0}
ctls:
  mode: purely_rotational
  levels:
    - {vib: 0, J: 0, tau: 0, M: 0}
    - {vib: 0, J: 1, tau: 0, M: 1}
    - {vib: 0, J: 1, tau: 1, M: 0}
"""


def write(tmp_path, text):
    path = tmp_path / "case.scenario"
    path.write_text(text, encoding="utf-8")
    return path


class TestBundledScenario:
    def test_parses(self):
        scenario = parse_scenario(bundled_scenario_path())
        assert scenario.molecule_name == "1,2-propanediol"
        assert (scenario.constants.A, scenario.constants.B, scenario.constants.C) == (
            8.5244,
            3.6354,
            2.7887,
        )
        assert scenario.vibrational_modes[0].frequency_thz == pytest.approx(100.95)
        assert scenario.mode == RO_VIBRATIONAL
        assert scenario.labeling == "tau"
        assert scenario.temperatures.t_vib_k == 300.0

    def test_config_levels(self):
        scenario = parse_scenario(bundled_scenario_path())
        config = to_ctls_config(scenario)
        energies = [lv.rot.energy_ghz for lv in config.levels]
        assert energies == pytest.approx([0.0, 11.3131, 12.1598], abs=1e-9)
        assert [lv.vib_quantum for lv in config.levels] == [0, 1, 1]


class TestValidation:
    def test_minimal_with_defaults(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, MINIMAL))
        assert scenario.temperatures.t_rot_k == 10.0
        assert scenario.temperatures.t_vib_k == 300.0
        assert scenario.sweep.points == 200
        assert scenario.sweep.log_scale is True
        assert scenario.labeling == "tau"
        assert scenario.vibrational_modes == ()

    def test_empty_modes_valid_for_purely_rotational(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, MINIMAL))
        config = to_ctls_config(scenario)
        assert config.mode == PURELY_ROTATIONAL

    def test_bad_constant_ordering_names_field(self, tmp_path):
        text = MINIMAL.replace("{A: 3.0, B: 2.0, C: 1.0}", "{A: 1.0, B: 2.0, C: 1.0}")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "rotational_constants_ghz" in str(err.value)
        assert "A >= B >= C" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        text = MINIMAL + "\nunexpected_key: 1\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "unexpected_key" in str(err.value)

    def test_unknown_nested_key_rejected(self, tmp_path):
        text = MINIMAL.replace("name: test-molecule", "name: test-molecule\n  color: blue")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "molecule.color" in str(err.value)

    def test_missing_required_key(self, tmp_path):
        text = MINIMAL.replace("  name: test-molecule\n", "")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "molecule.name" in str(err.value)

    def test_wrong_level_count(self, tmp_path):
        text = MINIMAL.replace("    - {vib: 0, J: 1, tau: 1, M: 0}\n", "")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "ctls.levels" in str(err.value)

    def test_rovib_mode_requires_modes(self, tmp_path):
        text = MINIMAL.replace("purely_rotational", "ro_vibrational").replace(
            "- {vib: 0, J: 1, tau: 0, M: 1}", "- {vib: 1, J: 1, tau: 0, M: 1}"
        ).replace("- {vib: 0, J: 1, tau: 1, M: 0}", "- {vib: 1, J: 1, tau: 1, M: 0}")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "vibrational_modes" in str(err.value)

    def test_vib_pattern_must_match_mode(self, tmp_path):
        text = MINIMAL.replace("- {vib: 0, J: 1, tau: 1, M: 0}", "- {vib: 1, J: 1, tau: 1, M: 0}")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "ctls.levels" in str(err.value)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("{vib: 0, J: 1, tau: 1, M: 0}", "{vib: 0, J: 1, tau: 0, M: 1}"),  # duplicate
            ("{vib: 0, J: 1, tau: 1, M: 0}", "{vib: 0, J: 1, tau: 5, M: 0}"),  # tau > J
        ],
        ids=["duplicate-level", "tau-out-of-range"],
    )
    def test_bad_loop_rejected_at_parse(self, tmp_path, old, new):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, MINIMAL.replace(old, new)))
        assert err.value.field.startswith("ctls.levels")

    @pytest.mark.parametrize(
        "sweep",
        [
            "{t_rot_min_k: 5.0, t_rot_max_k: 1.0}",
            "{t_rot_min_k: 0.0}",
            "{t_rot_max_k: .inf}",
            "{t_rot_max_k: .nan}",
            "{points: 1}",
            "{points: 10001}",
            "{points: 100000000000000000}",
        ],
    )
    def test_bad_sweep_rejected(self, tmp_path, sweep):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, MINIMAL + f"\nsweep: {sweep}\n"))
        assert err.value.field == "sweep"

    def test_non_numeric_rejected(self, tmp_path):
        text = MINIMAL.replace("A: 3.0", "A: three")
        with pytest.raises(ScenarioError):
            parse_scenario(write(tmp_path, text))

    def test_bad_labeling_rejected(self, tmp_path):
        text = MINIMAL + "\nlabeling: other\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert "labeling" in str(err.value)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_scenario(tmp_path / "nope.scenario")

    def test_empty_document_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            parse_scenario(write(tmp_path, "\n"))

    def test_mapping_not_list(self):
        with pytest.raises(ScenarioError):
            scenario_from_mapping({"molecule": []})


class TestRoundTrip:
    def test_bundled_round_trips(self):
        scenario = parse_scenario(bundled_scenario_path())
        text = dump_scenario(scenario)
        again = scenario_from_mapping(yaml.safe_load(text))
        assert again == scenario

    def test_minimal_round_trips(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, MINIMAL))
        again = scenario_from_mapping(yaml.safe_load(dump_scenario(scenario)))
        assert again == scenario


class TestModeOverride:
    def test_to_purely_rotational(self):
        scenario = parse_scenario(bundled_scenario_path())
        config = to_ctls_config(scenario, PURELY_ROTATIONAL)
        assert config.mode == PURELY_ROTATIONAL
        assert all(lv.vib_quantum == 0 for lv in config.levels)
        # rotational labels preserved
        assert config.levels[2].rot.energy_ghz == pytest.approx(12.1598, abs=1e-9)

    def test_to_ro_vibrational(self, tmp_path):
        text = MINIMAL.replace(
            "ctls:",
            "  vibrational_modes:\n"
            "    - {name: stretch, frequency_thz: 90.0}\n"
            "ctls:",
        )
        scenario = parse_scenario(write(tmp_path, text))
        config = to_ctls_config(scenario, RO_VIBRATIONAL)
        assert [lv.vib_quantum for lv in config.levels] == [0, 1, 1]
        assert config.levels[1].vib_energy_thz == pytest.approx(90.0)

    def test_to_ro_vibrational_without_modes_fails(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, MINIMAL))
        with pytest.raises(ScenarioError):
            to_ctls_config(scenario, RO_VIBRATIONAL)

    def test_unknown_mode_is_the_callers_error(self):
        scenario = parse_scenario(bundled_scenario_path())
        expected = r"mode must be one of \('ro_vibrational', 'purely_rotational'\), got 'bogus'"
        with pytest.raises(ValueError, match=expected) as info:
            to_ctls_config(scenario, "bogus")
        assert not isinstance(info.value, ScenarioError)


class TestResolution:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CTLS_SCENARIO_PATH", "/elsewhere.scenario")
        assert str(resolve_scenario_path("/explicit.scenario")) == "/explicit.scenario"

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("CTLS_SCENARIO_PATH", "/from-env.scenario")
        assert str(resolve_scenario_path(None)) == "/from-env.scenario"

    def test_bundled_default(self, monkeypatch):
        monkeypatch.delenv("CTLS_SCENARIO_PATH", raising=False)
        assert resolve_scenario_path(None) == bundled_scenario_path()
