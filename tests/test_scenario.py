import copy
import functools
import operator

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ctlsim.cli import EXIT_OK, EXIT_SCHEMA, main
from ctlsim.scenario import (
    ScenarioError,
    bundled_scenario_path,
    dump_scenario,
    parse_scenario,
    resolve_scenario_path,
    scenario_from_mapping,
    to_ctls_config,
)
from ctlsim.thermal import VibrationalMode
from ctlsim.transfer import (
    LABELINGS,
    PURELY_ROTATIONAL,
    RO_VIBRATIONAL,
    default_sweep_grid,
    excess_sweep,
    make_level,
    population_sweep,
    rotor_level_for_labels,
    yield_sweep,
)

from .conftest import OH_STRETCH, PROPANEDIOL, build_config, label_digits

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

# MINIMAL as --dump-config writes it: schema order, every default filled in
MINIMAL_ECHO = """\
molecule:
  name: test-molecule
  rotational_constants_ghz:
    A: 3.0
    B: 2.0
    C: 1.0
  vibrational_modes: []
ctls:
  mode: purely_rotational
  levels:
  - vib: 0
    J: 0
    tau: 0
    M: 0
  - vib: 0
    J: 1
    tau: 0
    M: 1
  - vib: 0
    J: 1
    tau: 1
    M: 0
temperatures:
  t_rot_k: 10.0
  t_vib_k: 300.0
sweep:
  t_rot_min_k: 0.001
  t_rot_max_k: 300.0
  points: 200
  log_scale: true
labeling: tau
"""


HUGE_INT = "1" + "0" * 400  # a YAML int beyond the float range
UNKNOWN_MODE = "mode must be one of ('ro_vibrational', 'purely_rotational'), got 'bogus'"


# one key per kind of value: where it is written, how it is read back, and
# the kind its type errors name
TYPED_FIELDS = {
    "temperatures.t_rot_k": (
        lambda v: MINIMAL + f"\ntemperatures: {{t_rot_k: {v}}}\n",
        lambda s: s.temperatures.t_rot_k,
        "a number",
    ),
    "sweep.points": (
        lambda v: MINIMAL + f"\nsweep: {{points: {v}}}\n",
        lambda s: s.sweep.points,
        "an integer",
    ),
    "molecule.name": (
        lambda v: MINIMAL.replace("name: test-molecule", f"name: {v}"),
        lambda s: s.molecule_name,
        "a string",
    ),
    "sweep.log_scale": (
        lambda v: MINIMAL + f"\nsweep: {{log_scale: {v}}}\n",
        lambda s: s.sweep.log_scale,
        "true/false",
    ),
}
# each YAML value, as a type error shows it
TYPED_VALUES = {
    "true": "True", "7": "7", "7.5": "7.5", '"x"': "'x'", "[1]": "[1]", "{a: 1}": "{'a': 1}",
}
# the (field, value) pairs that parse, and what they read as
TYPED_ACCEPTED = {
    ("temperatures.t_rot_k", "7"): 7.0,
    ("temperatures.t_rot_k", "7.5"): 7.5,
    ("sweep.points", "7"): 7,
    ("molecule.name", '"x"'): "x",
    ("sweep.log_scale", "true"): True,
}


def write(tmp_path, text):
    path = tmp_path / "case.scenario"
    path.write_text(text, encoding="utf-8")
    return path


@st.composite
def scenario_mappings(draw):
    """A raw scenario over the whole schema: both labelings and modes, any
    top, zero temperatures, any sweep bounds and names."""
    names = st.text(max_size=20)
    labeling = draw(st.sampled_from(LABELINGS))
    mode = draw(st.sampled_from((RO_VIBRATIONAL, PURELY_ROTATIONAL)))
    a, b, c = sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3)), reverse=True)
    vib_modes = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "name": names,
                    "frequency_thz": st.floats(1e-3, 1e3),
                    "max_quanta": st.integers(1, 10),
                }
            ),
            min_size=1 if mode == RO_VIBRATIONAL else 0,
            max_size=3,
        )
    )
    excited = (
        st.integers(1, vib_modes[0]["max_quanta"]) if mode == RO_VIBRATIONAL else st.just(0)
    )
    picks = draw(
        st.lists(
            st.sampled_from(label_digits(labeling)),
            min_size=2, max_size=2, unique_by=lambda d: (d[0], d[3]),
        )
    )
    levels = [{"vib": 0, "J": 0, "tau": 0, "M": 0}] + [
        {"vib": draw(excited), "J": j, "tau": first, "M": second}
        for j, first, second, _ in picks
    ]
    temperature = st.one_of(st.just(0.0), st.floats(0.0, 1e4))
    t_min, t_max = sorted(
        draw(st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=2, unique=True))
    )
    return {
        "molecule": {
            "name": draw(names),
            "rotational_constants_ghz": {"A": a, "B": b, "C": c},
            "vibrational_modes": vib_modes,
        },
        "ctls": {"mode": mode, "levels": levels},
        "temperatures": {"t_rot_k": draw(temperature), "t_vib_k": draw(temperature)},
        "sweep": {
            "t_rot_min_k": t_min,
            "t_rot_max_k": t_max,
            "points": draw(st.integers(2, 10_000)),
            "log_scale": draw(st.booleans()),
        },
        "labeling": labeling,
    }


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

    def test_unknown_keys_of_mixed_types_rejected(self, tmp_path):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, MINIMAL + "\n1: a\nzz: b\n"))
        assert err.value.field == "1"

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
        # the scenario's own loop: no override to name
        assert "loop this command builds" not in str(err.value)

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

    @pytest.mark.parametrize(
        "text, field, message",
        [
            (
                MINIMAL.replace("A: 3.0", f"A: {HUGE_INT}"),
                "molecule.rotational_constants_ghz.A",
                "int too large to convert to float",
            ),
            (
                MINIMAL + f"\ntemperatures: {{t_rot_k: {HUGE_INT}}}\n",
                "temperatures.t_rot_k",
                "int too large to convert to float",
            ),
            (MINIMAL.replace("mode: purely_rotational", "mode: bogus"), "ctls.mode", UNKNOWN_MODE),
            # a boolean is not a number, though Python counts it as an int
            (
                MINIMAL + "\ntemperatures: {t_rot_k: true}\n",
                "temperatures.t_rot_k",
                "expected a number, got True",
            ),
            (
                MINIMAL.replace("{vib: 0, J: 0,", "{vib: 0, J: 0.5,"),
                "ctls.levels[0].J",
                "expected an integer, got 0.5",
            ),
            (
                MINIMAL.replace("name: test-molecule", "name: 7"),
                "molecule.name",
                "expected a string, got 7",
            ),
            (
                MINIMAL + "\nsweep: {log_scale: 1}\n",
                "sweep.log_scale",
                "expected true/false, got 1",
            ),
            (
                MINIMAL.replace("name: test-molecule", "name: m\n  vibrational_modes: 5"),
                "molecule.vibrational_modes",
                "expected a list, got int",
            ),
        ],
        ids=[
            "huge-int-A", "huge-int-t_rot", "unknown-mode", "bool-number", "float-integer",
            "int-string", "int-boolean", "int-list",
        ],
    )
    def test_bad_value_names_field(self, tmp_path, text, field, message):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert err.value.field == field
        assert str(err.value) == f"{field}: {message}"

    @pytest.mark.parametrize("value", TYPED_VALUES)
    @pytest.mark.parametrize("field", TYPED_FIELDS)
    def test_typed_read_kind_matrix(self, tmp_path, field, value):
        # every value against every kind: a value is read by its own kind only
        place, read, kind = TYPED_FIELDS[field]
        path = write(tmp_path, place(value))
        if (field, value) in TYPED_ACCEPTED:
            expected = TYPED_ACCEPTED[field, value]
            got = read(parse_scenario(path))
            assert got == expected and type(got) is type(expected)
        else:
            with pytest.raises(ScenarioError) as err:
                parse_scenario(path)
            assert err.value.field == field
            assert str(err.value) == f"{field}: expected {kind}, got {TYPED_VALUES[value]}"

    def test_bad_labeling_rejected(self, tmp_path):
        # the parser names the field, before a level is read by an unknown labeling
        text = MINIMAL + "\nlabeling: other\n"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, text))
        assert err.value.field == "labeling"
        assert str(err.value) == "labeling: must be one of ('tau', 'ka_kc'), got 'other'"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_scenario(tmp_path / "nope.scenario")

    def test_empty_document_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            parse_scenario(write(tmp_path, "\n"))

    def test_mapping_not_list(self):
        with pytest.raises(ScenarioError):
            scenario_from_mapping({"molecule": []})


# Every key of the schema set to a value other than its default.
FULL = {
    "molecule": {
        "name": "test-molecule",
        "rotational_constants_ghz": {"A": 3.0, "B": 2.0, "C": 1.0},
        "vibrational_modes": [{"name": "stretch", "frequency_thz": 90.0, "max_quanta": 3}],
    },
    "ctls": {
        "mode": "purely_rotational",
        "levels": [
            {"vib": 0, "J": 0, "tau": 0, "M": 0},
            {"vib": 0, "J": 1, "tau": 0, "M": 1},
            {"vib": 0, "J": 1, "tau": 1, "M": 0},
        ],
    },
    "temperatures": {"t_rot_k": 20.0, "t_vib_k": 250.0},
    "sweep": {"t_rot_min_k": 0.1, "t_rot_max_k": 50.0, "points": 5, "log_scale": False},
    "labeling": "ka_kc",
}
OPTIONAL = {
    "molecule.vibrational_modes",
    "molecule.vibrational_modes[0].max_quanta",
    "temperatures",
    "temperatures.t_rot_k",
    "temperatures.t_vib_k",
    "sweep",
    "sweep.t_rot_min_k",
    "sweep.t_rot_max_k",
    "sweep.points",
    "sweep.log_scale",
    "labeling",
}


def key_paths(node, path=()):
    """Every key of a nested mapping, as a path of keys and list indices."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(key, str):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, path + (key,))


def field_name(path):
    """The path as a ScenarioError names it, e.g. ``ctls.levels[0].J``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def with_key(path, null):
    """FULL with the key at ``path`` set to null, or left out."""
    data = copy.deepcopy(FULL)
    *parents, last = path
    section = functools.reduce(operator.getitem, parents, data)
    if null:
        section[last] = None
    else:
        del section[last]
    return data


class TestNullKeys:
    @pytest.mark.parametrize("path", list(key_paths(FULL)), ids=field_name)
    def test_null_key_reads_as_absent(self, tmp_path, capsys, path):
        field = field_name(path)
        nulled = with_key(path, null=True)
        code = main(["populations", "--scenario", str(write(tmp_path, yaml.safe_dump(nulled)))])
        err = capsys.readouterr().err
        if field in OPTIONAL:
            assert scenario_from_mapping(nulled) == scenario_from_mapping(with_key(path, null=False))
            assert code == EXIT_OK, err
        else:
            with pytest.raises(ScenarioError) as info:
                scenario_from_mapping(nulled)
            assert info.value.field == field
            assert code == EXIT_SCHEMA
            assert f"invalid scenario: {field}: missing required key" in err


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

    def test_echo_is_in_schema_order(self):
        # every section's keys written in reverse; the echo keeps the read order
        def reverse(node):
            if isinstance(node, dict):
                return {key: reverse(node[key]) for key in reversed(list(node))}
            if isinstance(node, list):
                return [reverse(item) for item in node]
            return node

        data = yaml.safe_load(bundled_scenario_path().read_text(encoding="utf-8"))
        reversed_data = reverse(data)
        assert list(reversed_data) != list(data)
        scenario = scenario_from_mapping(data)
        again = scenario_from_mapping(reversed_data)
        assert again == scenario
        assert dump_scenario(again) == dump_scenario(scenario)

    def test_echo_fills_in_every_default(self, tmp_path):
        assert dump_scenario(parse_scenario(write(tmp_path, MINIMAL))) == MINIMAL_ECHO

    def test_echo_normalizes_numbers_and_nulls(self, tmp_path):
        text = MINIMAL.replace("A: 3.0", "A: 3") + (
            "temperatures: {t_rot_k: -0.0, t_vib_k: null}\n"
            "sweep: {points: null}\n"
        )
        echo = yaml.safe_load(dump_scenario(parse_scenario(write(tmp_path, text))))
        assert repr(echo["molecule"]["rotational_constants_ghz"]["A"]) == "3.0"
        assert repr(echo["temperatures"]["t_rot_k"]) == "0.0"
        assert echo["temperatures"]["t_vib_k"] == 300.0
        assert echo["sweep"]["points"] == 200

    def test_scenario_hashes_on_its_fields(self):
        scenario = parse_scenario(bundled_scenario_path())
        assert hash(scenario) == hash(parse_scenario(bundled_scenario_path()))
        assert "echo" not in repr(scenario)

    @given(scenario_mappings())
    @settings(deadline=None, max_examples=100)
    def test_dump_then_parse_is_identity(self, data):
        scenario = scenario_from_mapping(data)
        assert scenario_from_mapping(yaml.safe_load(dump_scenario(scenario))) == scenario


class TestModeOverride:
    def test_to_purely_rotational(self):
        scenario = parse_scenario(bundled_scenario_path())
        config = to_ctls_config(scenario, PURELY_ROTATIONAL)
        assert config.mode == PURELY_ROTATIONAL
        assert all(lv.vib_quantum == 0 for lv in config.levels)
        # rotational labels preserved
        assert config.levels[2].rot.energy_ghz == pytest.approx(12.1598, abs=1e-9)

    def test_to_ro_vibrational(self, tmp_path, capsys):
        text = MINIMAL.replace(
            "ctls:",
            "  vibrational_modes:\n"
            "    - {name: stretch, frequency_thz: 90.0}\n"
            "ctls:",
        )
        path = write(tmp_path, text)
        scenario = parse_scenario(path)
        config = to_ctls_config(scenario, RO_VIBRATIONAL)
        assert [lv.vib_quantum for lv in config.levels] == [0, 1, 1]
        assert config.levels[1].vib_energy_thz == pytest.approx(90.0)
        # the mode's ladder takes the schema's default top, and the echo says so
        assert scenario.vibrational_modes == (VibrationalMode("stretch", 90.0, 5),)
        assert main(["excess", "--scenario", str(path), "--dump-config"]) == EXIT_OK
        echo = yaml.safe_load(capsys.readouterr().out)
        assert echo["molecule"]["vibrational_modes"] == [
            {"name": "stretch", "frequency_thz": 90.0, "max_quanta": 5}
        ]

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


# library calls that leave out a value the scenario schema defaults, and the
# parameters they then miss: the parser is the one home of each default
WITHOUT_SCHEMA_DEFAULT = [
    (excess_sweep, (build_config(PURELY_ROTATIONAL), [10.0]), "'t_vib_k'"),
    (population_sweep, (build_config(PURELY_ROTATIONAL), [10.0]), "'t_vib_k'"),
    (yield_sweep, (build_config(PURELY_ROTATIONAL), [10.0]), "'t_vib_k'"),
    (default_sweep_grid, (), "'t_min_k', 't_max_k', 'points', and 'log_scale'"),
    (VibrationalMode, ("m", 30.0), "'max_quanta'"),
    (make_level, (PROPANEDIOL, (OH_STRETCH,), 0, 0, 0, 0), "'labeling'"),
    (rotor_level_for_labels, (PROPANEDIOL, 1, 0, 1), "'labeling'"),
]


@pytest.mark.parametrize(
    "function, args, missing",
    WITHOUT_SCHEMA_DEFAULT,
    ids=[function.__name__ for function, _, _ in WITHOUT_SCHEMA_DEFAULT],
)
def test_library_call_needs_the_schema_value(function, args, missing):
    with pytest.raises(TypeError, match=rf"missing \d required positional arguments?: {missing}$"):
        function(*args)


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
